#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "mobility/deployment.hpp"

namespace spider::mob {

/// CSV persistence for AP deployments, so a measured town (a wardriving
/// trace, say) can be replayed instead of a generated one. Columns:
///
///   x,y,channel,backhaul_bps,connected
///
/// Writers emit a header; readers accept files with or without one and
/// throw std::runtime_error, naming the line, on malformed rows and on
/// channels outside the modelled band.

void write_sites_csv(std::ostream& os, const std::vector<ApSite>& sites);
bool write_sites_csv(const std::string& path, const std::vector<ApSite>& sites);

std::vector<ApSite> read_sites_csv(std::istream& is);
std::vector<ApSite> read_sites_csv_file(const std::string& path);

}  // namespace spider::mob
