#include "mobility/deployment_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace spider::mob {

void write_sites_csv(std::ostream& os, const std::vector<ApSite>& sites) {
  // Full precision so write/read round-trips are lossless.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "x,y,channel,backhaul_bps,connected\n";
  for (const auto& s : sites) {
    os << s.position.x << ',' << s.position.y << ',' << s.channel << ','
       << s.backhaul.bps << ',' << (s.internet_connected ? 1 : 0) << '\n';
  }
}

bool write_sites_csv(const std::string& path, const std::vector<ApSite>& sites) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  write_sites_csv(f, sites);
  return static_cast<bool>(f);
}

std::vector<ApSite> read_sites_csv(std::istream& is) {
  std::vector<ApSite> sites;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1 && line.rfind("x,", 0) == 0) continue;  // header

    std::istringstream row(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() != 5) {
      throw std::runtime_error("deployment csv line " + std::to_string(line_no) +
                               ": expected 5 columns, got " +
                               std::to_string(cells.size()));
    }
    ApSite site;
    try {
      site.position = {std::stod(cells[0]), std::stod(cells[1])};
      site.channel = std::stoi(cells[2]);
      site.backhaul = bps(std::stod(cells[3]));
      site.internet_connected = std::stoi(cells[4]) != 0;
    } catch (const std::exception&) {
      throw std::runtime_error("deployment csv line " + std::to_string(line_no) +
                               ": malformed value");
    }
    if (!wire::in_band(site.channel)) {
      throw std::runtime_error(
          "deployment csv line " + std::to_string(line_no) + ": channel " +
          std::to_string(site.channel) + " is outside 1.." +
          std::to_string(wire::kMaxChannel));
    }
    sites.push_back(site);
  }
  return sites;
}

std::vector<ApSite> read_sites_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("cannot open deployment csv: " + path);
  }
  return read_sites_csv(f);
}

}  // namespace spider::mob
