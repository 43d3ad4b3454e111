// Tests for the trace-ingest layer (src/tracein) and the unified
// impairment API built on it (src/trace). Three claims are pinned here:
//
//   1. Ingest is strict and debuggable: every malformed row fails with its
//      1-based line number and a field-level message.
//   2. Ingest -> serialize -> ingest is an exact round trip, and the
//      compiled fault schedule is a pure function of (timeline, options) —
//      the replay determinism contract.
//   3. Trace-driven runs, single- and two-client, are byte-identical
//      across worker counts (the 200-seed fuzz at the bottom).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/experiment.hpp"
#include "trace/impairment.hpp"
#include "trace/runner.hpp"
#include "tracein/occupancy.hpp"
#include "tracein/replay.hpp"

using namespace spider;

namespace {

tracein::OccupancyTimeline ingest(const std::string& text) {
  std::istringstream is(text);
  return tracein::read_occupancy(is);
}

/// The exact what() of the ingest failure for `text` ("" when it parses).
std::string ingest_error(const std::string& text) {
  try {
    ingest(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// A trace file on disk for the duration of one test, written into the
/// test's working directory (the build tree) like test_serve's sockets.
class TempTrace {
 public:
  TempTrace(const std::string& name, const std::string& content)
      : path_(name) {
    std::ofstream f(path_, std::ios::trunc);
    f << content;
  }
  ~TempTrace() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Ingest: formats, comments, line endings

TEST(OccupancyIngest, CsvSkipsCommentsHeaderAndCrlf) {
  const auto t = ingest(
      "# recorded by a monitor\r\n"
      "\r\n"
      "t_s,channel,occupancy\r\n"
      "0,1,0.25\r\n"
      "5,1,0.5\n"
      "5,6,0.75\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.samples[0].at, Time{0});
  EXPECT_EQ(t.samples[0].channel, 1);
  EXPECT_DOUBLE_EQ(t.samples[0].occupancy, 0.25);
  EXPECT_EQ(t.samples[1].at, sec(5));
  EXPECT_EQ(t.samples[2].channel, 6);
  EXPECT_EQ(t.channels(), (std::vector<wire::Channel>{1, 6}));
  EXPECT_EQ(t.span(), sec(5));
}

TEST(OccupancyIngest, JsonlIsAutoDetectedFromLeadingBrace) {
  const auto t = ingest(
      "# jsonl dump\n"
      "{\"t_s\":0,\"channel\":6,\"occupancy\":0.4}\n"
      "{\"t_s\":2.5,\"channel\":6,\"occupancy\":0.8}\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.samples[0].channel, 6);
  EXPECT_DOUBLE_EQ(t.samples[1].occupancy, 0.8);
  EXPECT_EQ(t.samples[1].at, msec(2500));
}

// ---------------------------------------------------------------------------
// Ingest: every malformed row names its 1-based line

TEST(OccupancyIngest, MalformedCsvRowsReportLineNumbers) {
  EXPECT_EQ(ingest_error("0,1\n"),
            "occupancy trace line 1: expected 3 columns "
            "(t_s,channel,occupancy), got 2");
  // The comment and header lines still count toward the line number.
  EXPECT_EQ(ingest_error("# hi\nt_s,channel,occupancy\n0,1,0.2\nnope,1,0.2\n"),
            "occupancy trace line 4: bad timestamp 'nope'");
  EXPECT_EQ(ingest_error("0,six,0.2\n"),
            "occupancy trace line 1: bad channel 'six'");
  EXPECT_EQ(ingest_error("0,1,busy\n"),
            "occupancy trace line 1: bad occupancy 'busy'");
  EXPECT_EQ(ingest_error("-1,1,0.2\n"),
            "occupancy trace line 1: bad timestamp -1 "
            "(must be finite seconds >= 0)");
  EXPECT_EQ(ingest_error("0,6.5,0.2\n"),
            "occupancy trace line 1: channel must be an integer");
  EXPECT_EQ(ingest_error("0,15,0.2\n"),
            "occupancy trace line 1: unknown channel 15 "
            "(2.4 GHz band is 1..14)");
  EXPECT_EQ(ingest_error("0,1,1.5\n"),
            "occupancy trace line 1: occupancy 1.5 outside [0, 1]");
  EXPECT_EQ(ingest_error("10,6,0.2\n5,6,0.2\n"),
            "occupancy trace line 2: out-of-order sample for channel 6 "
            "(t went backwards)");
  EXPECT_EQ(ingest_error("10,6,0.2\n10,6,0.3\n"),
            "occupancy trace line 2: duplicate timestamp for channel 6");
  // Interleaved channels are fine: monotonicity is per channel.
  EXPECT_EQ(ingest_error("10,6,0.2\n0,11,0.2\n"), "");
}

TEST(OccupancyIngest, OutOfRangeChannelReportsItsRealValue) {
  // A channel beyond the integer range used to be cast before the band
  // check (undefined behaviour), and the error showed the wrapped value.
  EXPECT_EQ(ingest_error("0,1,0.2\n0,1e30,0.5\n"),
            "occupancy trace line 2: unknown channel 1e+30 "
            "(2.4 GHz band is 1..14)");
  EXPECT_EQ(ingest_error("0,4294967297,0.5\n"),
            "occupancy trace line 1: unknown channel 4294967297 "
            "(2.4 GHz band is 1..14)");
  EXPECT_EQ(ingest_error("0,0,0.5\n"),
            "occupancy trace line 1: unknown channel 0 "
            "(2.4 GHz band is 1..14)");
}

TEST(OccupancyIngest, OutOfRangeTimestampIsALineNamedError) {
  // Past the tick range the rounding conversion is undefined behaviour; a
  // 1e30 s row used to ingest as time -2^63 us.
  EXPECT_EQ(ingest_error("0,6,0.2\n1e30,6,0.5\n"),
            "occupancy trace line 2: bad timestamp 1e+30 "
            "(must be at most 1000000000000 s)");
  EXPECT_EQ(
      ingest_error("{\"t_s\":1e13,\"channel\":6,\"occupancy\":0.5}\n"),
      "occupancy trace line 1: bad timestamp 10000000000000 "
      "(must be at most 1000000000000 s)");
  EXPECT_EQ(ingest_error("1e12,6,0.5\n"), "");
}

TEST(OccupancyIngest, MalformedJsonlRowsReportLineNumbers) {
  EXPECT_EQ(ingest_error("{\"channel\":6,\"occupancy\":0.4}\n"),
            "occupancy trace line 1: missing numeric field 't_s'");
  EXPECT_EQ(ingest_error("{\"t_s\":0,\"channel\":6}\n"),
            "occupancy trace line 1: missing numeric field 'occupancy'");
  EXPECT_EQ(
      ingest_error("{\"t_s\":0,\"channel\":6,\"occupancy\":0.4}\n"
                   "{\"t_s\":1,\"channel\":6,\"occupancy\":0.4,\"rssi\":-60}\n"),
      "occupancy trace line 2: unknown field 'rssi'");
  EXPECT_NE(ingest_error("{not json\n").find("occupancy trace line 1: bad JSON"),
            std::string::npos);
}

TEST(OccupancyIngest, MissingFileNamesThePath) {
  std::string error;
  EXPECT_FALSE(tracein::ingest_file("no/such/trace.csv", &error).has_value());
  EXPECT_EQ(error, "cannot open occupancy trace: no/such/trace.csv");
}

// ---------------------------------------------------------------------------
// Round trip: ingest -> serialize -> ingest is exact

TEST(OccupancyRoundTrip, SerializeReingestIsByteIdentical) {
  // Awkward values on purpose: non-representable fractions must survive the
  // %.17g print -> strtod -> llround(µs) path without walking a tick.
  const auto original = ingest(
      "0.1,1,0.3333333333333333\n"
      "1.7,1,0.125\n"
      "0.30000000000000004,6,1\n"
      "2.999999,6,0.05\n");
  const std::string csv = tracein::occupancy_to_csv(original);
  std::istringstream is(csv);
  const auto again = tracein::read_occupancy(is);
  EXPECT_TRUE(again == original);
  EXPECT_EQ(tracein::occupancy_to_csv(again), csv);  // byte-identical
}

TEST(OccupancyRoundTrip, FileWriteAndReingestMatch) {
  tracein::OccupancyTimeline t;
  t.samples.push_back({msec(100), 11, 0.5});
  t.samples.push_back({msec(350), 11, 0.25});
  const TempTrace file("test_tracein_roundtrip.csv",
                       tracein::occupancy_to_csv(t));
  std::string error;
  const auto back = tracein::ingest_file(file.path(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(*back == t);
}

TEST(OccupancyTimeline, CheckCatchesHandBuiltMistakes) {
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(1), 6, 0.5});
  EXPECT_FALSE(t.check().has_value());

  t.samples.push_back({sec(1), 6, 0.5});
  EXPECT_EQ(t.check().value(),
            "sample 1: timestamps not strictly increasing on channel 6");
  t.samples[1] = {sec(2), 36, 0.5};
  EXPECT_EQ(t.check().value(), "sample 1: unknown channel 36");
  t.samples[1] = {sec(2), 6, 1.5};
  EXPECT_EQ(t.check().value(), "sample 1: occupancy outside [0, 1]");
  t.samples[1] = {Time{-1}, 6, 0.5};
  EXPECT_EQ(t.check().value(), "sample 1: negative timestamp");
}

// ---------------------------------------------------------------------------
// Replay compilation: windows, floor, mappings

TEST(ReplayCompile, InterferenceWindowsRunToTheChannelsNextSample) {
  // File order: ch6 @ 0s, ch6 @ 10s, ch1 @ 2s. The interior ch6 window
  // closes at the next ch6 row; tails use tail_window.
  const auto t = ingest("0,6,0.5\n2,1,0.4\n10,6,0.2\n");
  const fault::FaultSchedule schedule = tracein::compile_schedule(t, {});
  ASSERT_EQ(schedule.size(), 3u);
  const auto& specs = schedule.specs();

  EXPECT_EQ(specs[0].kind, fault::FaultKind::kChannelInterference);
  EXPECT_EQ(specs[0].at, Time{0});
  EXPECT_EQ(specs[0].duration, sec(10));  // closed by ch6 @ 10s
  EXPECT_EQ(specs[0].target, 6);
  EXPECT_DOUBLE_EQ(specs[0].intensity, 0.5);

  EXPECT_EQ(specs[1].target, 1);
  EXPECT_EQ(specs[1].duration, sec(1));  // tail: only ch1 sample
  EXPECT_DOUBLE_EQ(specs[1].intensity, 0.4);

  EXPECT_EQ(specs[2].target, 6);
  EXPECT_EQ(specs[2].at, sec(10));
  EXPECT_EQ(specs[2].duration, sec(1));  // tail of channel 6
}

TEST(ReplayCompile, MinOccupancyFloorDropsNoiseRows) {
  const auto t = ingest("0,6,0.04\n5,6,0.05\n10,6,0.2\n");
  const fault::FaultSchedule schedule = tracein::compile_schedule(t, {});
  ASSERT_EQ(schedule.size(), 2u);  // 0.04 < default floor 0.05; 0.05 stays
  EXPECT_EQ(schedule.specs()[0].at, sec(5));
  EXPECT_EQ(schedule.specs()[1].at, sec(10));
}

TEST(ReplayCompile, LossScaleCapsAtFullLoss) {
  tracein::ReplayOptions options;
  options.loss_scale = 3.0;
  const auto schedule =
      tracein::compile_schedule(ingest("0,6,0.5\n"), options);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.specs()[0].intensity, 1.0);
}

TEST(ReplayCompile, BurstMappingSizesDwellsToOccupancy) {
  tracein::ReplayOptions options;
  options.mapping = tracein::ReplayMapping::kBurst;
  const auto schedule =
      tracein::compile_schedule(ingest("0,6,0.25\n5,6,1\n"), options);
  ASSERT_EQ(schedule.size(), 2u);
  const auto& specs = schedule.specs();
  // E[busy] == occupancy: 0.25 of the default 200 ms dwell is bad time.
  EXPECT_EQ(specs[0].kind, fault::FaultKind::kChannelBurstLoss);
  EXPECT_EQ(specs[0].burst_mean, msec(50));
  EXPECT_EQ(specs[0].gap_mean, msec(150));
  // A fully busy window degenerates to constant interference: a zero gap
  // dwell would spin the injector's state machine.
  EXPECT_EQ(specs[1].kind, fault::FaultKind::kChannelInterference);
}

TEST(ReplayOptions, CheckNamesTheBadKnob) {
  tracein::ReplayOptions o;
  EXPECT_FALSE(o.check().has_value());
  o.loss_scale = -1.0;
  EXPECT_EQ(o.check().value(), "loss_scale: must be finite and >= 0");
  o = {};
  o.min_occupancy = 2.0;
  EXPECT_EQ(o.check().value(), "min_occupancy: must lie in [0, 1]");
  o = {};
  o.tail_window = Time{0};
  EXPECT_EQ(o.check().value(), "tail_window: must be positive");
  o = {};
  o.burst_dwell = Time{0};
  EXPECT_EQ(o.check().value(), "burst_dwell: must be positive");
}

TEST(ReplayOptions, MappingNamesRoundTrip) {
  tracein::ReplayMapping m;
  ASSERT_TRUE(tracein::replay_mapping_from_string("interference", &m));
  EXPECT_EQ(m, tracein::ReplayMapping::kInterference);
  ASSERT_TRUE(tracein::replay_mapping_from_string("burst", &m));
  EXPECT_EQ(m, tracein::ReplayMapping::kBurst);
  EXPECT_FALSE(tracein::replay_mapping_from_string("random", &m));
  EXPECT_STREQ(tracein::to_string(tracein::ReplayMapping::kBurst), "burst");
}

// ---------------------------------------------------------------------------
// ImpairmentSource: the one declarative impairment input

TEST(ImpairmentSource, DefaultIsSyntheticEmptyAndNone) {
  trace::ImpairmentSource source;
  EXPECT_EQ(source.kind, trace::ImpairmentSource::Kind::kSynthetic);
  EXPECT_TRUE(source.none());
  EXPECT_STREQ(source.field_name(), "impairments.schedule");
  EXPECT_STREQ(source.kind_name(), "synthetic");

  // The builder ergonomics the old `faults` field had still work.
  source.schedule.ap_blackout(sec(20), sec(5), 0);
  EXPECT_FALSE(source.none());
  std::string error;
  const auto resolved = source.resolve(&error);
  ASSERT_TRUE(resolved.has_value()) << error;
  ASSERT_EQ(resolved->size(), 1u);
  EXPECT_EQ(resolved->specs()[0].kind, fault::FaultKind::kApBlackout);
}

TEST(ImpairmentSource, TraceFileResolvesByIngestingAndCompiling) {
  const TempTrace file("test_tracein_source.csv", "0,6,0.5\n5,6,0.2\n");
  const auto source = trace::ImpairmentSource::trace_file(file.path());
  EXPECT_FALSE(source.none());  // a file is never knowably empty
  EXPECT_STREQ(source.field_name(), "impairments.trace_path");
  EXPECT_STREQ(source.kind_name(), "trace-file");

  std::string error;
  const auto resolved = source.resolve(&error);
  ASSERT_TRUE(resolved.has_value()) << error;
  const auto expected =
      tracein::compile_schedule(ingest("0,6,0.5\n5,6,0.2\n"), {});
  ASSERT_EQ(resolved->size(), expected.size());
  for (std::size_t i = 0; i < resolved->size(); ++i) {
    EXPECT_EQ(resolved->specs()[i].at, expected.specs()[i].at);
    EXPECT_EQ(resolved->specs()[i].duration, expected.specs()[i].duration);
    EXPECT_DOUBLE_EQ(resolved->specs()[i].intensity,
                     expected.specs()[i].intensity);
  }
}

TEST(ImpairmentSource, TraceFileFailuresCarryTheIngestMessage) {
  std::string error;
  EXPECT_FALSE(
      trace::ImpairmentSource::trace_file("").resolve(&error).has_value());
  EXPECT_EQ(error, "trace file path is empty");

  const TempTrace bad("test_tracein_bad.csv", "0,6,0.5\n0,6,0.6\n");
  EXPECT_FALSE(trace::ImpairmentSource::trace_file(bad.path())
                   .resolve(&error)
                   .has_value());
  EXPECT_EQ(error, "occupancy trace line 2: duplicate timestamp for channel 6");
}

TEST(ImpairmentSource, InlineTimelineValidatesBeforeCompiling) {
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(1), 6, 0.5});
  auto source = trace::ImpairmentSource::inline_timeline(t);
  EXPECT_STREQ(source.field_name(), "impairments.timeline");
  EXPECT_STREQ(source.kind_name(), "inline-timeline");
  std::string error;
  ASSERT_TRUE(source.resolve(&error).has_value()) << error;

  source.timeline.samples.push_back({sec(2), 6, 2.0});
  EXPECT_FALSE(source.resolve(&error).has_value());
  EXPECT_EQ(error, "sample 1: occupancy outside [0, 1]");

  source.replay.loss_scale = -1.0;
  EXPECT_FALSE(source.resolve(&error).has_value());
  EXPECT_EQ(error, "loss_scale: must be finite and >= 0");
}

TEST(ImpairmentSource, KindNamesRoundTrip) {
  trace::ImpairmentSource::Kind kind;
  ASSERT_TRUE(trace::impairment_kind_from_string("synthetic", &kind));
  EXPECT_EQ(kind, trace::ImpairmentSource::Kind::kSynthetic);
  ASSERT_TRUE(trace::impairment_kind_from_string("trace-file", &kind));
  EXPECT_EQ(kind, trace::ImpairmentSource::Kind::kTraceFile);
  ASSERT_TRUE(trace::impairment_kind_from_string("inline-timeline", &kind));
  EXPECT_EQ(kind, trace::ImpairmentSource::Kind::kInlineTimeline);
  EXPECT_FALSE(trace::impairment_kind_from_string("trace", &kind));
}

TEST(FaultKindNames, RoundTripThroughWireNames) {
  using fault::FaultKind;
  for (FaultKind kind :
       {FaultKind::kChannelBurstLoss, FaultKind::kChannelInterference,
        FaultKind::kApBlackout, FaultKind::kApReboot,
        FaultKind::kBeaconSilence, FaultKind::kPsmFlush,
        FaultKind::kDhcpStall, FaultKind::kDhcpNakStorm,
        FaultKind::kDhcpPoolReset, FaultKind::kGatewayFlap}) {
    FaultKind back;
    ASSERT_TRUE(fault::fault_kind_from_string(fault::to_string(kind), &back))
        << fault::to_string(kind);
    EXPECT_EQ(back, kind);
  }
  fault::FaultKind kind;
  EXPECT_FALSE(fault::fault_kind_from_string("ap_blackout", &kind));
}

// ---------------------------------------------------------------------------
// validate(): every new knob fails against its own field name

TEST(Validate, TraceImpairmentFailuresNameTheSourceField) {
  trace::ScenarioConfig config;
  config.impairments =
      trace::ImpairmentSource::trace_file("test_tracein_does_not_exist.csv");
  {
    const auto issues = config.validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].field, "impairments.trace_path");
    EXPECT_NE(issues[0].message.find("cannot open"), std::string::npos);
  }

  const TempTrace bad("test_tracein_validate.csv", "0,6,0.5\nx,6,0.5\n");
  config.impairments = trace::ImpairmentSource::trace_file(bad.path());
  {
    const auto issues = config.validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].field, "impairments.trace_path");
    EXPECT_NE(issues[0].message.find("line 2"), std::string::npos);
  }
}

// A trace file that cannot be opened is reported against its own source
// field, like every other trace-backed validation failure.
TEST(Validate, MissingTraceFileNamesItsSourceField) {
  trace::ScenarioConfig config;
  config.impairments =
      trace::ImpairmentSource::trace_file("test_tracein_does_not_exist.csv");
  const auto issues = config.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "impairments.trace_path");
  EXPECT_NE(issues[0].message.find("cannot open"), std::string::npos);
}

// Both trace-backed kinds run end-to-end, inject faults, and reproduce
// run-to-run on every resilience field.
TEST(TraceReplay, TraceBackedImpairmentsRerunIdentically) {
  const TempTrace file("test_tracein_rerun_e2e.csv",
                       "10,6,0.85\n25,6,0.1\n30,1,0.9\n40,1,0.2\n");
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(12), 6, 0.95});
  t.samples.push_back({sec(30), 6, 0.05});

  for (int source = 0; source < 2; ++source) {
    trace::ScenarioConfig cfg;
    cfg.seed = 77;
    cfg.duration = sec(50);
    cfg.deployment.road_length_m = 400;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
    cfg.impairments = source == 0
                          ? trace::ImpairmentSource::trace_file(file.path())
                          : trace::ImpairmentSource::inline_timeline(t);

    const trace::ScenarioResult a = trace::ScenarioRunner().run_one(cfg);
    const trace::ScenarioResult b = trace::ScenarioRunner().run_one(cfg);
    EXPECT_TRUE(a.completed) << "source " << source;
    EXPECT_GT(a.faults_injected, 0u) << "source " << source;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << "source " << source;
    EXPECT_EQ(a.total_bytes, b.total_bytes) << "source " << source;
    EXPECT_EQ(a.outages, b.outages) << "source " << source;
    EXPECT_EQ(a.recoveries, b.recoveries) << "source " << source;
    EXPECT_EQ(a.recovery_times.samples(), b.recovery_times.samples())
        << "source " << source;
  }
}

// ---------------------------------------------------------------------------
// Determinism fuzz: 200 seeds, trace-driven + mixed populations, jobs {1,8}

// Same exact-digest idea as test_sweep.cpp: everything deterministic in a
// result, wall-clock excluded.
std::string digest(const trace::ScenarioResult& r) {
  std::ostringstream out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out << buf;
  };
  num(r.avg_throughput_kBps);
  num(r.connectivity);
  out << r.total_bytes << ',' << r.switches << ',' << r.joins_attempted << ','
      << r.e2e_succeeded << ',';
  out << r.faults_injected << ',' << r.outages << ',' << r.recoveries << ',';
  for (double s : r.recovery_times.samples()) num(s);
  out << r.perf.events_popped << ',' << r.perf.events_cancelled;
  return out.str();
}

std::string fuzz_trace_csv() {
  tracein::OccupancyTimeline t;
  for (int w = 0; w < 5; ++w) {
    t.samples.push_back({sec(5 + w * 10), 1, 0.15 + 0.05 * w});
    t.samples.push_back({sec(5 + w * 10), 6, w == 2 ? 0.9 : 0.08});
    t.samples.push_back({sec(5 + w * 10), 11, 0.3});
  }
  return tracein::occupancy_to_csv(t);
}

std::vector<trace::ScenarioConfig> fuzz_configs(const std::string& trace_path) {
  std::vector<trace::ScenarioConfig> configs;
  for (int i = 0; i < 200; ++i) {
    trace::ScenarioConfig cfg;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    cfg.duration = sec(60);
    cfg.deployment.road_length_m = 400;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
    cfg.driver = (i % 3 == 0)   ? trace::DriverKind::kStock
                 : (i % 3 == 1) ? trace::DriverKind::kFatVap
                                : trace::DriverKind::kSpider;
    cfg.impairments = trace::ImpairmentSource::trace_file(trace_path);
    if (i % 2 == 1) cfg.clients = 2;
    configs.push_back(cfg);
  }
  return configs;
}

TEST(TraceReplayDeterminism, TwoHundredSeedsMatchAcrossJobsAndReingest) {
  const TempTrace file("test_tracein_fuzz.csv", fuzz_trace_csv());
  const auto configs = fuzz_configs(file.path());

  const auto serial = trace::ScenarioRunner({.jobs = 1}).run_many(configs);
  ASSERT_EQ(serial.size(), configs.size());
  std::vector<std::string> digests;
  digests.reserve(serial.size());
  for (const auto& result : serial) digests.push_back(digest(result));

  const auto parallel = trace::ScenarioRunner({.jobs = 8}).run_many(configs);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_EQ(digest(parallel[i]), digests[i]) << "jobs=8 seed " << i;
  }

  // Re-ingest determinism end to end: serialize the ingested timeline to a
  // second file and replay every seed from that copy — every digest must
  // still match byte for byte.
  std::string error;
  const auto ingested = tracein::ingest_file(file.path(), &error);
  ASSERT_TRUE(ingested.has_value()) << error;
  const TempTrace copy("test_tracein_fuzz_reingest.csv",
                       tracein::occupancy_to_csv(*ingested));
  auto reconfigs = configs;
  for (auto& cfg : reconfigs) {
    cfg.impairments = trace::ImpairmentSource::trace_file(copy.path());
  }
  const auto replayed = trace::ScenarioRunner({.jobs = 8}).run_many(reconfigs);
  ASSERT_EQ(replayed.size(), configs.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    ASSERT_EQ(digest(replayed[i]), digests[i]) << "re-ingest seed " << i;
  }
}

}  // namespace
