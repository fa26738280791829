// Script I/O and cost functions of the schedule-search engine
// (sim/schedule_search.h): the `schedule-script v1` text form every
// corpus file uses, and the ReclaimStats scores a search maximizes.
#include "sim/schedule_search.h"

#include <cctype>
#include <optional>
#include <sstream>
#include <string>

#include "spec/history.h"
#include "util/assert.h"

namespace aba::search {

namespace {

// Script method names are the spec's names in lower case (push, deq, dread,
// ll, ...), so every object the harness drives has a script form.
std::string method_name(spec::Method m) {
  std::string name = spec::to_string(m);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

std::optional<spec::Method> method_from(const std::string& name) {
  for (int m = 0; m <= static_cast<int>(spec::Method::kDeq); ++m) {  // Last.
    const auto method = static_cast<spec::Method>(m);
    if (name == method_name(method)) return method;
  }
  return std::nullopt;
}

}  // namespace

// ----------------------------------------------------------------- script

std::string ScheduleScript::serialize() const {
  std::ostringstream out;
  out << "schedule-script v1\n";
  out << "processes " << num_processes << "\n";
  for (const auto& [key, value] : meta) {
    out << "meta " << key << " " << value << "\n";
  }
  for (const auto& op : workload) {
    out << "op " << op.pid << " " << method_name(op.method) << " " << op.arg
        << "\n";
  }
  for (std::size_t i = 0; i < grants.size(); ++i) {
    if (i % 24 == 0) out << (i == 0 ? "grants" : "\ngrants");
    if (is_crash_grant(grants[i])) {
      out << " !" << crash_victim(grants[i]);
    } else {
      out << ' ' << grants[i];
    }
  }
  if (!grants.empty()) out << "\n";
  out << "end\n";
  return out.str();
}

std::optional<ScheduleScript> ScheduleScript::parse(const std::string& text) {
  ScheduleScript script;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    // Strip comments and blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word)) continue;

    if (!saw_header) {
      std::string version;
      if (word != "schedule-script" || !(tokens >> version) || version != "v1") {
        return std::nullopt;
      }
      saw_header = true;
      continue;
    }
    if (word == "processes") {
      // A second line could shrink the count under ops already parsed.
      if (script.num_processes != 0 || !(tokens >> script.num_processes) ||
          script.num_processes < 1) {
        return std::nullopt;
      }
    } else if (word == "meta") {
      std::string key, value;
      if (!(tokens >> key)) return std::nullopt;
      std::getline(tokens, value);
      const std::size_t start = value.find_first_not_of(" \t");
      script.meta[key] =
          start == std::string::npos ? std::string() : value.substr(start);
    } else if (word == "op") {
      harness::WorkloadOp op;
      std::string method;
      if (!(tokens >> op.pid >> method >> op.arg)) return std::nullopt;
      const auto parsed = method_from(method);
      if (!parsed || op.pid < 0 || op.pid >= script.num_processes) {
        return std::nullopt;
      }
      op.method = *parsed;
      script.workload.push_back(op);
    } else if (word == "grants") {
      std::string token;
      while (tokens >> token) {
        bool crash = false;
        if (!token.empty() && token[0] == '!') {
          crash = true;
          token.erase(0, 1);
        }
        int pid = -1;
        try {
          std::size_t used = 0;
          pid = std::stoi(token, &used);
          if (used != token.size()) return std::nullopt;
        } catch (...) {
          return std::nullopt;
        }
        if (pid < 0 || pid >= script.num_processes) return std::nullopt;
        script.grants.push_back(crash ? crash_grant(pid) : pid);
      }
    } else if (word == "end") {
      saw_end = true;
      break;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_header || !saw_end) return std::nullopt;
  return script;
}

// ------------------------------------------------------------------ costs

double retired_unreclaimed_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.retired_unreclaimed);
}

double pool_pressure_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.pool_size) - static_cast<double>(s.free_nodes);
}

double guard_occupancy_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.guard_slots_occupied);
}

double epoch_lag_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.epoch_lag);
}

double epoch_lag_backlog_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.epoch_lag) *
         static_cast<double>(s.retired_unreclaimed);
}

CostFn cost_by_name(const std::string& name) {
  if (name == "retired_unreclaimed") return retired_unreclaimed_cost;
  if (name == "pool_pressure") return pool_pressure_cost;
  if (name == "guard_occupancy") return guard_occupancy_cost;
  if (name == "epoch_lag") return epoch_lag_cost;
  if (name == "epoch_lag_backlog") return epoch_lag_backlog_cost;
  ABA_CHECK_MSG(false, "unknown schedule-search cost function name");
  return retired_unreclaimed_cost;
}

}  // namespace aba::search
