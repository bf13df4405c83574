#include "obs/fleet_view.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/atomic_file.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"

namespace xentry::obs {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<bool> flag_stragglers(const std::vector<double>& rates,
                                  double fraction) {
  std::vector<bool> flagged(rates.size(), false);
  if (fraction <= 0.0 || rates.size() < 2) return flagged;
  const double med = median(rates);
  if (!(med > 0.0)) return flagged;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    flagged[i] = rates[i] < fraction * med;
  }
  return flagged;
}

std::string_view worker_lifecycle_name(WorkerLifecycle s) {
  switch (s) {
    case WorkerLifecycle::kStarting: return "starting";
    case WorkerLifecycle::kRunning: return "running";
    case WorkerLifecycle::kRestarting: return "restarting";
    case WorkerLifecycle::kDone: return "done";
    case WorkerLifecycle::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

// The heartbeat's members, spelled as fault/fleet.cpp's heartbeat_json
// writes them.
enum HeartbeatKey : std::size_t {
  kWorker, kCompleted, kTotal, kRecentPerSec, kSinkLagBytes, kSinkDropped,
  kCheckpointed, kStragglers, kElapsedSec};
constexpr std::string_view kHeartbeatMembers[] = {
    "\"worker\":", "\"completed\":", "\"total\":",
    "\"recent_per_sec\":", "\"sink_lag_bytes\":", "\"sink_dropped\":",
    "\"checkpointed\":", "\"stragglers\":", "\"elapsed_sec\":"};
constexpr std::uint64_t kHeartbeatRequired = (1u << (kElapsedSec + 1)) - 1;

/// Reads one heartbeat into `w`'s heartbeat fields.  All or nothing: a
/// heartbeat that does not parse leaves `w` untouched.
void read_heartbeat(std::string_view text, FleetView::WorkerStatus& w) {
  FleetView::WorkerStatus hb = w;
  int worker = 0;
  std::uint64_t checkpointed = 0;
  double elapsed = 0;
  LineScanner in(text);
  if (!in.members(kHeartbeatMembers, kHeartbeatRequired,
                  [&](std::size_t k) {
                    switch (k) {
                      case kWorker: return in.integer(worker);
                      case kCompleted: return in.integer(hb.completed);
                      case kTotal: return in.integer(hb.total);
                      case kRecentPerSec: return in.number(hb.recent_per_sec);
                      case kSinkLagBytes: return in.integer(hb.sink_lag_bytes);
                      case kSinkDropped: return in.integer(hb.sink_dropped);
                      case kCheckpointed: return in.integer(checkpointed);
                      case kStragglers:
                        return in.integer(hb.shard_stragglers);
                      case kElapsedSec: return in.number(elapsed);
                      default: return false;
                    }
                  }) ||
      !in.end()) {
    return;
  }
  hb.checkpointed = std::max(hb.checkpointed, checkpointed);
  w = hb;
}

}  // namespace

FleetView::FleetView(Options opts) : opts_(std::move(opts)) {
  assert(opts_.worker_units.size() ==
         static_cast<std::size_t>(opts_.workers));
  assert(opts_.heartbeat_paths.size() ==
         static_cast<std::size_t>(opts_.workers));
  assert(opts_.sidecar_paths.size() ==
         static_cast<std::size_t>(opts_.workers));
  workers_.resize(static_cast<std::size_t>(opts_.workers));
  prev_heartbeat_.resize(workers_.size());
  prev_sidecar_bytes_.assign(workers_.size(), 0);
  journal_grew_.assign(workers_.size(), false);
}

void FleetView::set_lifecycle(int worker, WorkerLifecycle state, long pid,
                              int restarts) {
  WorkerStatus& w = workers_[static_cast<std::size_t>(worker)];
  w.state = state;
  w.pid = pid;
  w.restarts = restarts;
  // A lifecycle transition is itself a signal: the stall clock restarts
  // when a replacement process is spawned.
  if (state == WorkerLifecycle::kStarting ||
      state == WorkerLifecycle::kRestarting) {
    w.last_signal_sec = -1;
  }
}

void FleetView::note_journal(int worker, std::uint64_t checkpointed_records,
                             std::uint64_t journal_bytes) {
  WorkerStatus& w = workers_[static_cast<std::size_t>(worker)];
  w.checkpointed = std::max(w.checkpointed, checkpointed_records);
  if (journal_bytes > w.journal_bytes) {
    w.journal_bytes = journal_bytes;
    journal_grew_[static_cast<std::size_t>(worker)] = true;
  }
}

void FleetView::poll(double now_sec) {
  merged_ = MetricsRegistry();
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    WorkerStatus& w = workers_[wi];
    bool signal = journal_grew_[wi];
    journal_grew_[wi] = false;

    // Heartbeat: atomically-published JSON, so a successful read is
    // either the previous or the current beat, never a torn mix.  Any
    // byte change (the elapsed field moves every beat) counts as life.
    const std::string hb = read_file(opts_.heartbeat_paths[wi]);
    if (!hb.empty() && hb != prev_heartbeat_[wi]) {
      signal = true;
      prev_heartbeat_[wi] = hb;
    }
    // A heartbeat or sidecar that does not parse is left out of this
    // poll: the worker keeps its previous heartbeat fields.
    if (!hb.empty()) read_heartbeat(hb, w);

    // Sidecars: the per-unit snapshot streams.  read_snapshots ignores a
    // torn tail, so tailing a live stream merges the intact prefix.
    std::uint64_t sidecar_bytes = 0;
    for (const std::string& path : opts_.sidecar_paths[wi]) {
      const std::string text = read_file(path);
      sidecar_bytes += text.size();
      std::vector<MetricsSnapshot> snaps;
      if (!read_snapshots(text, path, snaps).has_value()) {
        merged_.merge_from(merge_snapshots(snaps));
      }
    }
    if (sidecar_bytes != prev_sidecar_bytes_[wi]) {
      signal = true;
      prev_sidecar_bytes_[wi] = sidecar_bytes;
    }

    if (signal || w.last_signal_sec < 0) w.last_signal_sec = now_sec;
    w.stalled = w.state == WorkerLifecycle::kRunning &&
                opts_.stall_timeout_sec > 0 &&
                now_sec - w.last_signal_sec > opts_.stall_timeout_sec;
  }

  // Worker-level stragglers: rate normalized per owned unit, compared to
  // the median across running workers that still have work left.
  std::vector<double> rates;
  std::vector<std::size_t> candidates;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    WorkerStatus& w = workers_[wi];
    w.straggler = false;
    if (w.state != WorkerLifecycle::kRunning) continue;
    if (w.total > 0 && w.completed >= w.total) continue;
    const std::size_t units = opts_.worker_units[wi].size();
    candidates.push_back(wi);
    rates.push_back(units > 0 ? w.recent_per_sec / static_cast<double>(units)
                              : w.recent_per_sec);
  }
  const std::vector<bool> lag =
      flag_stragglers(rates, opts_.straggler_fraction);
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    workers_[candidates[j]].straggler = lag[j];
  }
}

std::uint64_t FleetView::completed() const {
  std::uint64_t n = 0;
  for (const WorkerStatus& w : workers_) n += w.completed;
  return n;
}

std::uint64_t FleetView::checkpointed() const {
  std::uint64_t n = 0;
  for (const WorkerStatus& w : workers_) n += w.checkpointed;
  return n;
}

std::uint64_t FleetView::sink_lag_bytes() const {
  std::uint64_t n = 0;
  for (const WorkerStatus& w : workers_) n += w.sink_lag_bytes;
  return n;
}

std::uint64_t FleetView::sink_dropped() const {
  std::uint64_t n = 0;
  for (const WorkerStatus& w : workers_) n += w.sink_dropped;
  return n;
}

int FleetView::stalled_count() const {
  int n = 0;
  for (const WorkerStatus& w : workers_) n += w.stalled ? 1 : 0;
  return n;
}

int FleetView::straggler_count() const {
  int n = 0;
  for (const WorkerStatus& w : workers_) n += w.straggler ? 1 : 0;
  return n;
}

int FleetView::restart_count() const {
  int n = 0;
  for (const WorkerStatus& w : workers_) n += w.restarts;
  return n;
}

double FleetView::rate_per_sec() const {
  double r = 0;
  for (const WorkerStatus& w : workers_) {
    if (w.state == WorkerLifecycle::kRunning) r += w.recent_per_sec;
  }
  return r;
}

double FleetView::eta_sec() const {
  const double rate = rate_per_sec();
  const std::uint64_t done = completed();
  if (rate <= 0 || done >= opts_.total_injections) return 0;
  return static_cast<double>(opts_.total_injections - done) / rate;
}

std::string FleetView::status_json(std::string_view state) const {
  std::string out = "{\"schema\":\"xentry.fleet.status.v1\",\"state\":\"";
  out += state;
  out += "\",\"fleet\":{\"seed\":";
  append_u64(out, opts_.seed);
  out += ",\"injections\":";
  append_u64(out, opts_.total_injections);
  out += ",\"units\":";
  append_u64(out, static_cast<std::uint64_t>(opts_.unit_count));
  out += ",\"workers\":";
  append_u64(out, static_cast<std::uint64_t>(opts_.workers));
  out += "},\"progress\":{\"completed\":";
  append_u64(out, completed());
  out += ",\"total\":";
  append_u64(out, opts_.total_injections);
  out += ",\"checkpointed\":";
  append_u64(out, checkpointed());
  out += ",\"rate_per_sec\":";
  append_double(out, rate_per_sec());
  out += ",\"eta_sec\":";
  append_double(out, eta_sec());
  out += "},\"sink\":{\"lag_bytes\":";
  append_u64(out, sink_lag_bytes());
  out += ",\"dropped\":";
  append_u64(out, sink_dropped());
  out += "},\"health\":{\"stalled\":";
  append_u64(out, static_cast<std::uint64_t>(stalled_count()));
  out += ",\"stragglers\":";
  append_u64(out, static_cast<std::uint64_t>(straggler_count()));
  out += ",\"restarts\":";
  append_u64(out, static_cast<std::uint64_t>(restart_count()));
  out += "},\"workers\":[";
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    const WorkerStatus& w = workers_[wi];
    if (wi != 0) out += ',';
    out += "{\"worker\":";
    append_u64(out, wi);
    out += ",\"state\":\"";
    out += worker_lifecycle_name(w.state);
    out += "\",\"pid\":";
    append_u64(out, w.pid > 0 ? static_cast<std::uint64_t>(w.pid) : 0);
    out += ",\"restarts\":";
    append_u64(out, static_cast<std::uint64_t>(w.restarts));
    out += ",\"units\":[";
    const std::vector<int>& units = opts_.worker_units[wi];
    for (std::size_t k = 0; k < units.size(); ++k) {
      if (k != 0) out += ',';
      append_u64(out, static_cast<std::uint64_t>(units[k]));
    }
    out += "],\"completed\":";
    append_u64(out, w.completed);
    out += ",\"total\":";
    append_u64(out, w.total);
    out += ",\"recent_per_sec\":";
    append_double(out, w.recent_per_sec);
    out += ",\"checkpointed\":";
    append_u64(out, w.checkpointed);
    out += ",\"sink_lag_bytes\":";
    append_u64(out, w.sink_lag_bytes);
    out += ",\"sink_dropped\":";
    append_u64(out, w.sink_dropped);
    out += ",\"stalled\":";
    out += w.stalled ? "true" : "false";
    out += ",\"straggler\":";
    out += w.straggler ? "true" : "false";
    out += '}';
  }
  out += "],\"metrics\":";
  std::ostringstream metrics;
  merged_.write_json(metrics);
  out += metrics.str();
  out += '}';
  return out;
}

bool FleetView::write_status(const std::string& path,
                             std::string_view state) const {
  std::string doc = status_json(state);
  doc += '\n';
  return write_file_atomic(path, doc);
}

std::string FleetView::dashboard_line() const {
  int up = 0;
  for (const WorkerStatus& w : workers_) {
    if (w.state == WorkerLifecycle::kRunning) ++up;
  }
  const std::uint64_t done = completed();
  const double pct =
      opts_.total_injections > 0
          ? 100.0 * static_cast<double>(done) /
                static_cast<double>(opts_.total_injections)
          : 0.0;
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "fleet %d/%d up | %llu/%llu (%.1f%%) | %.0f/s | ckpt %llu | "
      "lag %lluB drops %llu | eta %.0fs | stall %d strag %d restarts %d",
      up, opts_.workers, static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(opts_.total_injections), pct,
      rate_per_sec(), static_cast<unsigned long long>(checkpointed()),
      static_cast<unsigned long long>(sink_lag_bytes()),
      static_cast<unsigned long long>(sink_dropped()), eta_sec(),
      stalled_count(), straggler_count(), restart_count());
  return std::string(buf);
}

}  // namespace xentry::obs
