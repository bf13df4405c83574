#include "fault/fleet.hpp"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "obs/atomic_file.hpp"
#include "obs/fleet_view.hpp"
#include "obs/snapshot.hpp"

namespace xentry::fault {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t file_size(const std::string& path) {
  struct stat sb{};
  if (::stat(path.c_str(), &sb) != 0) return 0;
  return static_cast<std::uint64_t>(sb.st_size);
}

std::string heartbeat_json(int worker, const HeartbeatSample& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"worker\":%d,\"completed\":%llu,\"total\":%llu,"
      "\"recent_per_sec\":%.17g,\"sink_lag_bytes\":%llu,"
      "\"sink_dropped\":%llu,\"checkpointed\":%llu,\"stragglers\":%llu,"
      "\"elapsed_sec\":%.17g}\n",
      worker, static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.total), s.recent_per_sec,
      static_cast<unsigned long long>(s.sink_lag_bytes),
      static_cast<unsigned long long>(s.sink_dropped),
      static_cast<unsigned long long>(s.checkpointed),
      static_cast<unsigned long long>(s.stragglers), s.elapsed_sec);
  return std::string(buf);
}

}  // namespace

std::vector<int> fleet_units_for_worker(int unit_count, int workers,
                                        int worker) {
  std::vector<int> units;
  if (workers <= 0) return units;
  for (int u = worker; u < unit_count; u += workers) units.push_back(u);
  return units;
}

std::string fleet_records_path(const std::string& dir) {
  return dir + "/records";
}

std::string fleet_checkpoint_path(const std::string& dir, int worker) {
  return dir + "/ckpt.worker" + std::to_string(worker);
}

std::string fleet_heartbeat_path(const std::string& dir, int worker) {
  return dir + "/hb.worker" + std::to_string(worker) + ".json";
}

std::string fleet_status_path(const std::string& dir) {
  return dir + "/status.json";
}

CampaignConfig make_worker_config(const FleetOptions& opts, int worker) {
  CampaignConfig cfg = opts.base;
  cfg.shards = 0;  // the unit space overrides it
  cfg.fleet.unit_count = opts.units;
  cfg.fleet.units = fleet_units_for_worker(opts.units, opts.workers, worker);
  cfg.streaming.records_path = fleet_records_path(opts.dir);
  cfg.streaming.checkpoint_path = fleet_checkpoint_path(opts.dir, worker);
  // Records live in the durable unit streams; the worker's in-memory
  // copy would only be thrown away at _exit.
  cfg.streaming.keep_records = false;
  cfg.streaming.abort_after = 0;
  cfg.collect_dataset = false;
  // Metrics sidecars are the plane's data source, so they are not
  // optional in a fleet.  (They do not perturb record digests.)
  cfg.obs.metrics = true;
  cfg.heartbeat.straggler_fraction = opts.straggler_fraction;
  if (opts.worker_heartbeat_sec > 0) {
    cfg.heartbeat.interval_sec = opts.worker_heartbeat_sec;
    const std::string hb_path = fleet_heartbeat_path(opts.dir, worker);
    cfg.heartbeat.callback = [hb_path, worker](const HeartbeatSample& s) {
      obs::write_file_atomic(hb_path, heartbeat_json(worker, s));
    };
  } else {
    cfg.heartbeat.interval_sec = 0;
    cfg.heartbeat.callback = nullptr;
  }
  return cfg;
}

int run_fleet_worker(const FleetOptions& opts, int worker,
                     bool simulate_kill) {
  try {
    CampaignConfig cfg = make_worker_config(opts, worker);
    if (simulate_kill && opts.simulate_kill_worker0_after > 0) {
      cfg.streaming.abort_after = opts.simulate_kill_worker0_after;
    }
    run_campaign(cfg);
    // A simulated kill cut the run short exactly as SIGKILL would have;
    // report it as the abnormal exit it stands in for.
    return simulate_kill && opts.simulate_kill_worker0_after > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet worker %d: %s\n", worker, e.what());
    return 1;
  }
}

FleetResult run_fleet(const FleetOptions& opts_in) {
  FleetOptions opts = opts_in;
  FleetResult out;
  const auto fail = [&out](std::string msg) {
    out.ok = false;
    out.error = std::move(msg);
    return out;
  };
  if (opts.workers < 1) {
    return fail("fleet: workers must be >= 1, got " +
                std::to_string(opts.workers));
  }
  if (opts.dir.empty()) return fail("fleet: dir must be set");
  if (opts.units <= 0) opts.units = opts.workers;
  if (opts.units < opts.workers) {
    return fail("fleet: units (" + std::to_string(opts.units) +
                ") must be >= workers (" + std::to_string(opts.workers) +
                ") so every worker owns at least one unit");
  }
  if (opts.status_interval_sec <= 0) opts.status_interval_sec = 1.0;

  // Fail fast on a bad campaign config before any process exists.
  try {
    for (int w = 0; w < opts.workers; ++w) {
      validate_campaign_config(make_worker_config(opts, w));
    }
  } catch (const std::exception& e) {
    return fail(e.what());
  }

  const obs::RecordFormat fmt = opts.base.streaming.records_format;
  const std::string records_base = fleet_records_path(opts.dir);

  // -- observability plane ---------------------------------------------------
  obs::FleetView::Options vo;
  vo.total_injections = static_cast<std::uint64_t>(opts.base.injections);
  vo.seed = opts.base.seed;
  vo.unit_count = opts.units;
  vo.workers = opts.workers;
  vo.stall_timeout_sec = opts.stall_timeout_sec;
  vo.straggler_fraction = opts.straggler_fraction;
  for (int w = 0; w < opts.workers; ++w) {
    const std::vector<int> units =
        fleet_units_for_worker(opts.units, opts.workers, w);
    const std::string ckpt = fleet_checkpoint_path(opts.dir, w);
    std::vector<std::string> sidecars;
    sidecars.reserve(units.size());
    for (int u : units) sidecars.push_back(snapshot_sidecar_path(ckpt, u));
    vo.worker_units.push_back(units);
    vo.heartbeat_paths.push_back(fleet_heartbeat_path(opts.dir, w));
    vo.sidecar_paths.push_back(std::move(sidecars));
  }
  obs::FleetView view(std::move(vo));
  const std::string status_path = fleet_status_path(opts.dir);

  // -- supervision -----------------------------------------------------------
  const auto spawn =
      opts.spawn != nullptr
          ? opts.spawn
          : std::function<long(int, int)>([&opts](int w, int attempt) -> long {
              const bool sim = opts.simulate_kill_worker0_after > 0 &&
                               w == 0 && attempt == 0;
              const pid_t pid = ::fork();
              if (pid == 0) _exit(run_fleet_worker(opts, w, sim));
              return pid;
            });

  struct Proc {
    long pid = -1;
    int attempts = 0;
    int restarts = 0;
    bool done = false;
    bool failed = false;
  };
  std::vector<Proc> procs(static_cast<std::size_t>(opts.workers));

  const auto launch = [&](int w) {
    Proc& p = procs[static_cast<std::size_t>(w)];
    const int attempt = p.attempts++;
    const long pid = spawn(w, attempt);
    if (pid <= 0) {
      p.failed = true;
      view.set_lifecycle(w, obs::WorkerLifecycle::kFailed, -1, p.restarts);
      return;
    }
    p.pid = pid;
    view.set_lifecycle(w, obs::WorkerLifecycle::kRunning, pid, p.restarts);
  };
  for (int w = 0; w < opts.workers; ++w) launch(w);

  const auto t0 = Clock::now();
  const auto now_sec = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto feed_journals = [&] {
    // Journal growth is a liveness signal even between heartbeats; the
    // checkpointed-record counts themselves arrive via the heartbeat.
    for (int w = 0; w < opts.workers; ++w) {
      view.note_journal(w, 0, file_size(fleet_checkpoint_path(opts.dir, w)));
    }
  };

  bool chaos_pending = opts.kill_one_after > 0;
  bool any_failed = false;
  double next_status = 0.0;
  const auto fleet_alive = [&procs] {
    for (const Proc& p : procs) {
      if (!p.done && !p.failed) return true;
    }
    return false;
  };

  while (fleet_alive()) {
    // Reap exits; clean exit means the worker's units are complete (and
    // the final merge re-verifies that against the journals).
    for (int w = 0; w < opts.workers; ++w) {
      Proc& p = procs[static_cast<std::size_t>(w)];
      if (p.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(p.pid), &status, WNOHANG);
      if (r == 0) continue;
      p.pid = -1;
      const bool clean =
          r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (clean) {
        p.done = true;
        view.set_lifecycle(w, obs::WorkerLifecycle::kDone, -1, p.restarts);
      } else if (p.restarts < opts.max_restarts) {
        ++p.restarts;
        view.set_lifecycle(w, obs::WorkerLifecycle::kRestarting, -1,
                           p.restarts);
        launch(w);
      } else {
        p.failed = true;
        any_failed = true;
        view.set_lifecycle(w, obs::WorkerLifecycle::kFailed, -1, p.restarts);
      }
    }

    // The plane runs on the status cadence; while a chaos kill is armed
    // it samples faster so the kill window does not depend on cadence.
    const double now = now_sec();
    if (now >= next_status) {
      feed_journals();
      view.poll(now);
      // Stall: no signal from a running worker within the timeout.  Kill
      // it; the reap above turns that into a restart (budget permitting).
      for (int w = 0; w < opts.workers; ++w) {
        Proc& p = procs[static_cast<std::size_t>(w)];
        if (p.pid > 0 && view.worker(w).stalled) {
          ::kill(static_cast<pid_t>(p.pid), SIGKILL);
        }
      }
      if (chaos_pending && view.completed() >=
                               static_cast<std::uint64_t>(opts.kill_one_after)) {
        for (int w = 0; w < opts.workers; ++w) {
          Proc& p = procs[static_cast<std::size_t>(w)];
          if (p.pid > 0) {
            ::kill(static_cast<pid_t>(p.pid), SIGKILL);
            chaos_pending = false;
            break;
          }
        }
      }
      view.write_status(status_path, "running");
      if (opts.dashboard) opts.dashboard(view.dashboard_line());
      next_status =
          now + (chaos_pending
                     ? std::min(opts.status_interval_sec, 0.05)
                     : opts.status_interval_sec);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  out.elapsed_sec = now_sec();
  out.worker_restarts.reserve(procs.size());
  for (const Proc& p : procs) {
    out.worker_restarts.push_back(p.restarts);
    out.restarts += p.restarts;
  }
  feed_journals();
  view.poll(now_sec());
  view.write_status(status_path, any_failed ? "failed" : "done");
  if (opts.dashboard) opts.dashboard(view.dashboard_line());
  if (any_failed) {
    return fail("fleet: a worker failed after exhausting its " +
                std::to_string(opts.max_restarts) + "-restart budget");
  }

  // -- deterministic merge + verification ------------------------------------
  // Decode every unit stream in unit order (the single-process record
  // order), re-derive each unit's digest, and cross-check it against the
  // owning worker's journal — the same re-derivation telemetry_tool
  // verify performs.
  std::vector<JournalContents> journals;
  journals.reserve(static_cast<std::size_t>(opts.workers));
  for (int w = 0; w < opts.workers; ++w) {
    journals.push_back(read_journal(fleet_checkpoint_path(opts.dir, w)));
    if (!journals.back().error.empty()) {
      return fail("fleet: " + journals.back().error);
    }
  }
  out.digest = kDigestBasis;
  out.digest_cross_checked = true;
  out.records.reserve(static_cast<std::size_t>(opts.base.injections));
  for (int u = 0; u < opts.units; ++u) {
    const std::string path =
        obs::ShardedFileSink::shard_path(records_base, fmt, u);
    std::vector<InjectionRecord> recs;
    if (const auto err =
            decode_shard_file(obs::read_file(path), path, fmt, recs)) {
      return fail("fleet: unit stream failed to decode: " + *err);
    }
    std::uint64_t unit_digest = kDigestBasis;
    for (const InjectionRecord& r : recs) {
      unit_digest = digest_update(unit_digest, r);
      out.digest = digest_update(out.digest, r);
    }
    const JournalContents& js =
        journals[static_cast<std::size_t>(u % opts.workers)];
    if (js.valid && static_cast<std::size_t>(u) < js.shards.size() &&
        js.shards[static_cast<std::size_t>(u)].has_value()) {
      const ShardCheckpoint& ck = *js.shards[static_cast<std::size_t>(u)];
      if (ck.records_written != recs.size() || ck.digest != unit_digest) {
        return fail("fleet: unit " + std::to_string(u) +
                    " stream disagrees with its journal (records " +
                    std::to_string(recs.size()) + " vs " +
                    std::to_string(ck.records_written) +
                    ") — torn or corrupt stream");
      }
    } else {
      out.digest_cross_checked = false;
    }
    out.records.insert(out.records.end(),
                       std::make_move_iterator(recs.begin()),
                       std::make_move_iterator(recs.end()));
  }
  if (out.records.size() !=
      static_cast<std::size_t>(opts.base.injections)) {
    return fail("fleet: merged stream holds " +
                std::to_string(out.records.size()) + " records, expected " +
                std::to_string(opts.base.injections));
  }
  out.rates = weighted_rates(out.records);

  // Merged metrics: unit sidecars in unit order (sums, so the order is
  // cosmetic) plus the campaign-level shard-count gauge the equivalent
  // single-process merge carries.  Its timing gauges (elapsed, rates)
  // are inherently per-run and excluded by strip_timing_metrics on both
  // sides of any comparison.
  for (int u = 0; u < opts.units; ++u) {
    const std::string sidecar = snapshot_sidecar_path(
        fleet_checkpoint_path(opts.dir, u % opts.workers), u);
    std::vector<obs::MetricsSnapshot> snaps;
    if (const auto err =
            obs::read_snapshots(obs::read_file(sidecar), sidecar, snaps)) {
      return fail("fleet: " + *err);
    }
    out.metrics.merge_from(obs::merge_snapshots(snaps));
  }
  out.metrics.gauge("campaign.shards").set(opts.units);
  out.ok = true;
  return out;
}

}  // namespace xentry::fault
