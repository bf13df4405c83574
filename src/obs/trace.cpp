#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <set>

#include "obs/json.hpp"

namespace xentry::obs {

void TraceRecorder::merge_from(TraceRecorder&& other) {
  dropped_ += other.dropped_;
  for (TraceEvent& e : other.events_) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      continue;
    }
    events_.push_back(e);
  }
  other.clear();
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  bool first = true;

  // Lane names: one metadata event per distinct tid.
  std::set<std::int32_t> tids;
  for (const TraceEvent& e : events_) tids.insert(e.tid);
  for (std::int32_t tid : tids) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << tid << ", \"args\": {\"name\": \"shard " << tid << "\"}}";
  }

  for (const TraceEvent& e : events_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\": ";
    write_json_string(os, e.name);
    os << ", \"ph\": \"" << e.phase << "\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << e.ts_us;
    if (e.phase == 'X') os << ", \"dur\": " << e.dur_us;
    if (e.phase == 'i') os << ", \"s\": \"t\"";
    if (!e.arg_name.empty()) {
      os << ", \"args\": {";
      write_json_string(os, e.arg_name);
      os << ": " << e.arg_value << "}";
    }
    os << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": "
     << dropped_ << "}}\n";
}

}  // namespace xentry::obs
