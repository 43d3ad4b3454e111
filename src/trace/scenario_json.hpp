#pragma once

#include <iosfwd>
#include <string>

#include "trace/experiment.hpp"
#include "util/json.hpp"

namespace spider::trace {

/// The one scenario JSON serde. The serve wire protocol, spider_campaign
/// and the trace tooling all round-trip ScenarioConfig through these two
/// functions, so a scenario means the same thing whether it arrives over
/// the server socket, from a campaign spec, or from a file on disk —
/// there is no second, drifting parser to disagree with.
///
/// The format covers the protocol subset of ScenarioConfig (seed,
/// duration/speed/clients, road or city deployment, driver + interface
/// count + operation mode, neighbor index) plus the declarative
/// "impairments" extension (synthetic schedule | trace file | inline
/// timeline), written only when non-default.
///
/// parse is strict: an unknown key, a value of the wrong type (a string
/// seed, a non-boolean "adaptive") or an integer outside its field's type
/// fails with an error message naming the offending field, so a client
/// typo cannot silently run a different experiment than intended.
bool parse_scenario_json(const util::Json& json, ScenarioConfig* config,
                         std::string* error);
/// Convenience: parse the textual form (one JSON object).
bool parse_scenario_json(const std::string& text, ScenarioConfig* config,
                         std::string* error);

void write_scenario_json(std::ostream& os, const ScenarioConfig& config);
std::string scenario_to_json(const ScenarioConfig& config);

}  // namespace spider::trace
