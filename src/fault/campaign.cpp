#include "fault/campaign.hpp"

#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "fault/sampler.hpp"
#include "obs/fleet_view.hpp"
#include "obs/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace xentry::fault {

wl::WorkloadProfile uniform_sweep_profile() {
  wl::WorkloadProfile p;
  for (const hv::ExitReason& r : hv::all_exit_reasons()) {
    p.mix.emplace_back(r, 1.0);
  }
  return p;
}

void validate_campaign_config(const CampaignConfig& cfg) {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("CampaignConfig: " + msg);
  };
  if (cfg.injections < 0) {
    fail("injections must be >= 0, got " + std::to_string(cfg.injections));
  }
  // Negated comparison so NaN fails too.
  if (!(cfg.activation_bias >= 0.0 && cfg.activation_bias <= 1.0)) {
    fail("activation_bias must be within [0, 1], got " +
         std::to_string(cfg.activation_bias));
  }
  if (cfg.warmup_activations < 0) {
    fail("warmup_activations must be >= 0, got " +
         std::to_string(cfg.warmup_activations));
  }
  if (cfg.stream_gap < 0) {
    fail("stream_gap must be >= 0, got " + std::to_string(cfg.stream_gap));
  }
  if (cfg.shards < 0) {
    fail("shards must be >= 0 (0 = hardware concurrency), got " +
         std::to_string(cfg.shards));
  }
  if (cfg.fleet.unit_count < 0) {
    fail("fleet.unit_count must be >= 0 (0 = not a fleet worker), got " +
         std::to_string(cfg.fleet.unit_count));
  }
  if (cfg.fleet.unit_count > 0) {
    if (cfg.streaming.records_path.empty()) {
      fail("fleet.unit_count is set without streaming.records_path — fleet "
           "work units only exist as durable shard streams; point "
           "records_path at the shared campaign directory");
    }
    if (cfg.injections > 0 && cfg.fleet.unit_count > cfg.injections) {
      fail("fleet.unit_count " + std::to_string(cfg.fleet.unit_count) +
           " exceeds injections " + std::to_string(cfg.injections) +
           " — the equivalent single-process campaign clamps shards to "
           "injections, so the partitions could never match");
    }
    if (cfg.fleet.units.empty()) {
      fail("fleet.unit_count is set but fleet.units is empty — this process "
           "would own no work units");
    }
    std::vector<bool> seen(static_cast<std::size_t>(cfg.fleet.unit_count));
    for (int u : cfg.fleet.units) {
      if (u < 0 || u >= cfg.fleet.unit_count) {
        fail("fleet.units entry " + std::to_string(u) +
             " is outside [0, unit_count=" +
             std::to_string(cfg.fleet.unit_count) + ")");
      }
      if (seen[static_cast<std::size_t>(u)]) {
        fail("fleet.units contains unit " + std::to_string(u) +
             " twice — a unit's stream would be written by two shards");
      }
      seen[static_cast<std::size_t>(u)] = true;
    }
  } else if (!cfg.fleet.units.empty()) {
    fail("fleet.units is set without fleet.unit_count — set unit_count to "
         "the fleet-wide size of the unit space");
  }
  if (cfg.obs.flight_recorder && cfg.obs.flight_recorder_depth <= 0) {
    fail("obs.flight_recorder enabled with non-positive "
         "flight_recorder_depth " +
         std::to_string(cfg.obs.flight_recorder_depth));
  }
  if (cfg.obs.forensics && cfg.obs.forensics_sample_every <= 0) {
    fail("obs.forensics enabled with non-positive forensics_sample_every " +
         std::to_string(cfg.obs.forensics_sample_every));
  }
  if (cfg.heartbeat.interval_sec > 0 && !cfg.heartbeat.callback) {
    fail("heartbeat.interval_sec is set but no heartbeat.callback is "
         "installed");
  }
  if (!(cfg.heartbeat.interval_sec >= 0) ||
      std::isinf(cfg.heartbeat.interval_sec)) {
    fail("heartbeat.interval_sec must be finite and >= 0");
  }
  if (!(cfg.heartbeat.straggler_fraction >= 0.0 &&
        cfg.heartbeat.straggler_fraction < 1.0)) {
    fail("heartbeat.straggler_fraction must be within [0, 1), got " +
         std::to_string(cfg.heartbeat.straggler_fraction));
  }
  if (cfg.xentry.transition_detection && cfg.model.empty() &&
      !cfg.collect_dataset) {
    fail("transition detection is enabled but no model is installed and no "
         "dataset is being collected — it can never fire; install "
         "cfg.model, set collect_dataset=true (the training "
         "configuration), or disable xentry.transition_detection");
  }
  if (cfg.xentry.control_flow_detection && cfg.analysis == nullptr) {
    fail("control-flow detection is enabled but no analysis artifacts are "
         "installed — it can never fire; set cfg.analysis to "
         "analyze_program(...) output or disable "
         "xentry.control_flow_detection");
  }
  if (cfg.xentry.timing_detection) {
    if (cfg.analysis == nullptr) {
      fail("timing detection is enabled but no analysis artifacts are "
           "installed — it can never fire; set cfg.analysis to "
           "analyze_program(...) output or disable "
           "xentry.timing_detection");
    }
    if (cfg.analysis->timing.valid_count() == 0) {
      fail("timing detection is enabled but the analysis artifacts carry "
           "no finite timing envelopes — re-run analyze_program with "
           "AnalyzeOptions::timing_envelopes enabled");
    }
  }
  if (cfg.sampling.importance) {
    if (!(cfg.sampling.weight_floor > 0.0 &&
          cfg.sampling.weight_floor <= 1.0)) {
      fail("sampling.weight_floor must be within (0, 1], got " +
           std::to_string(cfg.sampling.weight_floor));
    }
    if (cfg.analysis == nullptr) {
      fail("sampling.importance is enabled but no analysis artifacts are "
           "installed — the sampler needs the bit-liveness vulnerability "
           "map; set cfg.analysis to analyze_program(...) output");
    }
    if (cfg.analysis->vuln.empty()) {
      fail("sampling.importance is enabled but the analysis artifacts "
           "carry no vulnerability map — re-run analyze_program with "
           "AnalyzeOptions::bit_liveness enabled");
    }
  }
  const CampaignConfig::StreamingConfig& st = cfg.streaming;
  if (!st.records_path.empty() && st.sink_buffer_bytes == 0) {
    fail("streaming.records_path is set with sink_buffer_bytes == 0 (every "
         "append would be dropped)");
  }
  if (!st.keep_records && st.records_path.empty()) {
    fail("streaming.keep_records is false but no records_path is set — the "
         "records would be lost entirely; point records_path at a sink");
  }
  if (st.abort_after < 0) {
    fail("streaming.abort_after must be >= 0, got " +
         std::to_string(st.abort_after));
  }
  if (!st.checkpoint_path.empty()) {
    if (st.records_path.empty()) {
      fail("streaming.checkpoint_path is set without records_path — a "
           "resumed campaign cannot reconstruct pre-kill records without a "
           "durable record sink");
    }
    if (st.checkpoint_every <= 0) {
      fail("streaming.checkpoint_every must be > 0, got " +
           std::to_string(st.checkpoint_every));
    }
    if (cfg.collect_dataset) {
      fail("collect_dataset cannot be combined with checkpointing — the "
           "dataset accumulator is not journaled, so a resumed run would "
           "silently miss pre-kill rows; collect the dataset in a "
           "non-checkpointed campaign");
    }
  }
}

namespace {

using Clock = std::chrono::steady_clock;

/// Trace-event budget per shard recorder: events beyond it are counted as
/// dropped instead of growing the buffer.
constexpr std::size_t kShardTraceEvents = 1u << 20;

/// Per-shard progress cells for the heartbeat, padded to a cache line so
/// shards never share one.  Relaxed increments: the monitor reads a
/// point-in-time aggregate, not a synchronized snapshot.
struct alignas(64) ShardProgress {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> detected[kNumTechniques]{};
  /// Records durable at the shard's last checkpoint.
  std::atomic<std::uint64_t> checkpointed{0};
  /// Record-sink bytes buffered but not yet flushed (sink flush lag).
  std::atomic<std::uint64_t> sink_lag{0};
  /// Record-sink frames dropped (mirror of the shard's sink stats — the
  /// stats struct itself is single-writer and unsafe for the monitor).
  std::atomic<std::uint64_t> dropped{0};
};

/// Campaign-level metric handles, resolved once per shard.
struct CampaignMetricHandles {
  obs::Counter* injections = nullptr;  // liveness gate
  obs::Counter* activated = nullptr;
  obs::Counter* manifested = nullptr;
  obs::Counter* detected = nullptr;
  obs::Counter* golden_steps = nullptr;
  obs::Counter* blackbox_dumps = nullptr;
  /// Importance sampling only: slots resolved without a faulted run.
  obs::Counter* analytic_slots = nullptr;
  /// Faulted runs resolved from the golden trace (provably unactivated).
  obs::Counter* unactivated_resolved = nullptr;
  // Forensics (null unless obs.forensics && obs.metrics).
  obs::Counter* forensics_replays = nullptr;
  obs::Counter* forensics_replay_steps = nullptr;
  obs::Counter* forensics_mismatch = nullptr;
  /// Indexed by UndetectedClass ordinal; NotApplicable (0) stays null.
  std::array<obs::Counter*, 5> forensics_class{};
  obs::Log2Histogram* forensics_latency = nullptr;
  obs::Log2Histogram* forensics_taint = nullptr;
};

/// Streaming plumbing for one shard: the shared sink (per-shard streams
/// inside), the shared journal, and this shard's latest checkpoint
/// (null on a fresh start).
struct ShardStreaming {
  obs::RecordSink* sink = nullptr;
  CheckpointJournal* journal = nullptr;
  const ShardCheckpoint* resume = nullptr;
};

/// One shard's work: its own machines, generator, RNG, and telemetry.
/// The workload profile is resolved once in run_campaign and shared
/// read-only; `progress` is null unless the heartbeat is enabled.
CampaignResult run_shard(
    const CampaignConfig& cfg, const wl::WorkloadProfile& profile,
    int shard_index, int num_shards,
    obs::TraceRecorder::Clock::time_point epoch, ShardProgress* progress,
    const ShardStreaming& streaming) {
  const int base = cfg.injections / num_shards;
  const int extra = shard_index < cfg.injections % num_shards ? 1 : 0;
  const int quota = base + extra;

  CampaignResult result;
  if (quota == 0) return result;
  if (cfg.streaming.keep_records) {
    result.records.reserve(static_cast<std::size_t>(quota));
  }
  const ShardCheckpoint* const resume = streaming.resume;

  // -- metrics sidecar (snapshot stream) -------------------------------------
  // The restored registry must be in place before anything below resolves
  // handles into result.metrics: restoring replaces the registry object.
  const obs::Options& oo = cfg.obs;
  std::ofstream snap_stream;
  std::unique_ptr<obs::SnapshotWriter> snap_writer;
  if (streaming.journal != nullptr && oo.metrics) {
    const std::string spath =
        snapshot_sidecar_path(cfg.streaming.checkpoint_path, shard_index);
    if (resume != nullptr) {
      {
        std::ifstream in(spath, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (text.size() > resume->snap_offset) {
          text.resize(static_cast<std::size_t>(resume->snap_offset));
        }
        result.metrics = obs::merge_snapshots(obs::read_snapshots(text));
      }
      // Drop snapshot lines written after the journaled commit point (a
      // kill can land between the snapshot write and the journal append).
      std::error_code ec;
      std::filesystem::resize_file(spath, resume->snap_offset, ec);
      snap_stream.open(spath, std::ios::binary | std::ios::app);
      snap_writer = std::make_unique<obs::SnapshotWriter>(snap_stream);
      snap_writer->prime(result.metrics, resume->snap_count);
    } else {
      snap_stream.open(spath, std::ios::binary | std::ios::trunc);
      snap_writer = std::make_unique<obs::SnapshotWriter>(snap_stream);
    }
    if (!snap_stream.is_open()) {
      throw std::runtime_error("campaign: cannot open metrics sidecar " +
                               spath);
    }
  }

  hv::Machine golden(cfg.machine);
  hv::Machine faulty(cfg.machine);
  // Both machines run the selected engine: the golden probe and the
  // faulty run must retire identical streams for the diff to mean
  // anything.
  golden.set_execution_engine(cfg.xentry.engine);
  faulty.set_execution_engine(cfg.xentry.engine);
  // Rewind the golden machine to the checkpointed image before telemetry
  // attaches (the faulty machine realigns from the golden probe on every
  // injection, so only golden state is journaled).
  if (resume != nullptr) restore_machine(golden, *resume);

  // -- shard-local telemetry (lock-free: nothing here is shared) ------------
  result.trace = obs::TraceRecorder(kShardTraceEvents, epoch);
  obs::TraceRecorder* const tr = oo.tracing ? &result.trace : nullptr;
  const std::int32_t tid = shard_index;
  obs::FlightRecorder flight(oo.flight_recorder_depth);
  // Telemetry placement follows the cost structure: the FAULTY machine
  // runs exactly once per injection (the interesting run — behavior under
  // fault), so it carries the per-VM-exit span and the flight-recorder
  // ring.  The GOLDEN machine runs ~4x as often (probe + advances), so it
  // carries only the passive snapshot/restore histograms; its probe run
  // is timed by the enclosing phase:golden_probe span instead.
  obs::MachineTelemetry golden_hooks, faulty_hooks;
  if (oo.tracing) {
    faulty_hooks.trace = &result.trace;
    faulty_hooks.tid = tid;
  }
  if (oo.flight_recorder) {
    faulty_hooks.flight = &flight;
    faulty_hooks.flight_source = 1;
  }
  if (oo.metrics) {
    obs::Log2Histogram* snap = &result.metrics.histogram("machine.snapshot_ns");
    obs::Log2Histogram* rest = &result.metrics.histogram("machine.restore_ns");
    golden_hooks.snapshot_ns = faulty_hooks.snapshot_ns = snap;
    golden_hooks.restore_ns = faulty_hooks.restore_ns = rest;
  }
  if (oo.metrics) golden.set_telemetry(&golden_hooks);
  if (oo.any()) faulty.set_telemetry(&faulty_hooks);
  CampaignMetricHandles cm;
  if (oo.metrics) {
    cm.injections = &result.metrics.counter("campaign.injections");
    cm.activated = &result.metrics.counter("campaign.activated");
    cm.manifested = &result.metrics.counter("campaign.manifested");
    cm.detected = &result.metrics.counter("campaign.detected");
    cm.golden_steps = &result.metrics.counter("campaign.golden_steps");
    cm.blackbox_dumps = &result.metrics.counter("campaign.blackbox_dumps");
    cm.unactivated_resolved =
        &result.metrics.counter("campaign.unactivated_resolved");
    if (cfg.sampling.importance) {
      cm.analytic_slots = &result.metrics.counter("campaign.analytic_slots");
    }
    if (oo.forensics) {
      cm.forensics_replays = &result.metrics.counter("forensics.replays");
      cm.forensics_replay_steps =
          &result.metrics.counter("forensics.replay_steps");
      cm.forensics_mismatch =
          &result.metrics.counter("forensics.heuristic_mismatch");
      for (int c = 1; c < 5; ++c) {
        cm.forensics_class[static_cast<std::size_t>(c)] =
            &result.metrics.counter(
                "forensics.class." +
                std::string(undetected_class_name(
                    static_cast<UndetectedClass>(c))));
      }
      cm.forensics_latency =
          &result.metrics.histogram("forensics.first_divergence_latency");
      cm.forensics_taint = &result.metrics.histogram("forensics.taint_words");
    }
  }

  Xentry xentry(cfg.xentry);
  if (!cfg.model.empty()) xentry.set_model(cfg.model);
  if (cfg.analysis != nullptr) xentry.set_analysis(cfg.analysis.get());
  if (oo.metrics) xentry.set_metrics(&result.metrics);
  InjectionExperiment experiment(golden, faulty, xentry, cfg.outcome);
  if (oo.flight_recorder) experiment.set_flight_recorder(&flight);
  if (oo.forensics) {
    InjectionExperiment::ForensicsConfig fc;
    fc.enabled = true;
    fc.sample_every = oo.forensics_sample_every;
    experiment.set_forensics(fc);
  }

  const std::uint64_t shard_seed =
      cfg.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(shard_index);
  wl::WorkloadGenerator gen(golden, profile, shard_seed);
  std::mt19937_64 rng(shard_seed ^ 0xc2b2ae3d27d4eb4full);

  // Importance sampling: the redraw stream is per shard and disjoint from
  // the main stream, so skipping masked candidates never perturbs the
  // activation/probe sequence of the slots that do execute.
  std::unique_ptr<ImportanceSampler> sampler;
  if (cfg.sampling.importance) {
    sampler = std::make_unique<ImportanceSampler>(
        cfg.analysis->vuln, golden.microvisor().program,
        cfg.sampling.weight_floor, shard_seed ^ 0x94d049bb133111ebull);
  }

  if (resume != nullptr) {
    // Rewind every RNG cursor to the journaled state; the textual
    // mt19937_64 encoding is engine-exact, so the draw sequences continue
    // bit-identically from the checkpoint boundary.
    if (!rng_state_from_string(gen.rng(), resume->gen_rng) ||
        !rng_state_from_string(rng, resume->main_rng) ||
        (sampler != nullptr &&
         !rng_state_from_string(sampler->aux(), resume->aux_rng))) {
      throw std::runtime_error(
          "campaign: checkpoint RNG state failed to parse (journal written "
          "by an incompatible build?)");
    }
    gen.set_activations_generated(resume->activations_generated);
    experiment.set_forensics_counter(resume->forensics_counter);
  } else {
    obs::TraceRecorder::Span warm(tr, "phase:warmup", tid);
    for (int i = 0; i < cfg.warmup_activations; ++i) {
      experiment.advance(gen.next());
    }
  }

  // -- streaming state -------------------------------------------------------
  obs::RecordSink* const sink = streaming.sink;
  const obs::RecordFormat fmt = cfg.streaming.records_format;
  std::uint64_t records_written =
      resume != nullptr ? resume->records_written : 0;
  std::uint64_t digest = resume != nullptr ? resume->digest : kDigestBasis;
  double effective = resume != nullptr ? resume->effective : 0.0;
  std::string frame;               // encode buffer, reused per record
  obs::SinkShardStats mirrored{};  // sink stats already mirrored to counters
  const auto mirror_sink_stats = [&] {
    if (sink == nullptr || !oo.metrics) return;
    const obs::SinkShardStats& now = sink->stats(shard_index);
    result.metrics.counter("obs.sink.appends").inc(now.appends -
                                                   mirrored.appends);
    result.metrics.counter("obs.sink.appended_bytes")
        .inc(now.appended_bytes - mirrored.appended_bytes);
    result.metrics.counter("obs.sink.flushes").inc(now.flushes -
                                                   mirrored.flushes);
    result.metrics.counter("obs.sink.flushed_bytes")
        .inc(now.flushed_bytes - mirrored.flushed_bytes);
    result.metrics.counter("obs.sink.backpressure_flushes")
        .inc(now.backpressure_flushes - mirrored.backpressure_flushes);
    result.metrics.counter("obs.sink.dropped").inc(now.dropped -
                                                   mirrored.dropped);
    mirrored = now;
  };
  const auto write_checkpoint = [&](std::uint64_t iterations_done) {
    // Commit order is what makes a kill at any instant recoverable:
    // durable records first, then the metrics snapshot, then the journal
    // line naming both offsets.  A kill between any two steps leaves a
    // tail beyond the last journaled offset, which resume truncates.
    if (sink != nullptr) sink->flush(shard_index);
    mirror_sink_stats();
    ShardCheckpoint ck;
    ck.shard = shard_index;
    ck.iterations = iterations_done;
    ck.records_written = records_written;
    ck.digest = digest;
    ck.effective = effective;
    ck.sink_offset = sink != nullptr ? sink->offset(shard_index) : 0;
    if (snap_writer != nullptr) {
      snap_writer->write(result.metrics);
      ck.snap_offset = static_cast<std::uint64_t>(snap_stream.tellp());
      ck.snap_count = snap_writer->next_seq();
    }
    ck.forensics_counter = experiment.forensics_counter();
    ck.activations_generated = gen.activations_generated();
    ck.gen_rng = rng_state_string(gen.rng());
    ck.main_rng = rng_state_string(rng);
    if (sampler != nullptr) ck.aux_rng = rng_state_string(sampler->aux());
    capture_machine(golden, ck);
    streaming.journal->append(ck);
    if (progress != nullptr) {
      progress->checkpointed.store(records_written,
                                   std::memory_order_relaxed);
      progress->sink_lag.store(0, std::memory_order_relaxed);
    }
  };
  if (resume != nullptr && progress != nullptr) {
    progress->completed.store(records_written, std::memory_order_relaxed);
    progress->checkpointed.store(records_written, std::memory_order_relaxed);
  }

  std::bernoulli_distribution biased(cfg.activation_bias);
  InjectionExperiment::GoldenProbe probe;  // buffers reused every injection
  const int start_iter =
      resume != nullptr ? static_cast<int>(resume->iterations) : 0;
  for (int i = start_iter; i < quota; ++i) {
    const hv::Activation act = gen.next();
    // The probe run doubles as the experiment's golden run: the golden
    // machine advances to its post-run state here and run_one only has to
    // execute the faulted machine.
    {
      obs::TraceRecorder::Span span(tr, "phase:golden_probe", tid);
      experiment.probe_golden_advance(act, probe);
    }
    if (probe.steps == 0) {
      // Degenerate activation: rewind and skip the injection.  No record
      // exists and no further draws are consumed, but the checkpoint /
      // abort bookkeeping below still runs — iteration counts include
      // degenerate slots, so resume boundaries stay well-defined.
      golden.restore(probe.pre);
    } else {
      ImportanceSampler::Proposal prop;
      if (sampler != nullptr) {
        prop = biased(rng) ? sampler->propose_activated(rng, probe.trace)
                           : sampler->propose_uniform(rng, probe.steps,
                                                      probe.trace);
      } else {
        prop.injection =
            biased(rng)
                ? InjectionExperiment::draw_activated_injection(
                      rng, probe.trace, golden.microvisor().program)
                : InjectionExperiment::draw_injection(rng, probe.steps);
      }
      const hv::Injection inj = prop.injection;
      InjectionExperiment::Result r;
      if (prop.analytic) {
        // Slot resolved without a faulted run: its live mass sits below the
        // weight floor (or rejection redraw exhausted), so the whole slot is
        // attributed to Masked.  The record mirrors what the run would have
        // produced except that no activation bookkeeping exists
        // (activated = false) and the features are the golden run's.
        InjectionRecord& rec0 = r.record;
        rec0.reason = act.reason;
        rec0.activation_seed = act.seed;
        rec0.vcpu = act.vcpu;
        rec0.injection = inj;
        rec0.injected = true;
        rec0.consequence = Consequence::Masked;
        rec0.features = FeatureVector::from(act.reason, probe.counters);
        r.golden_features = rec0.features;
        r.golden_ok = probe.reached_vm_entry;
        if (cm.analytic_slots != nullptr) cm.analytic_slots->inc();
      } else {
        {
          // Covers the injection, the faulted run under Xentry interception,
          // and the outcome classification.
          obs::TraceRecorder::Span span(tr, "phase:faulted_run", tid);
          span.arg("at_step", inj.at_step);
          r = experiment.run_one(act, inj, probe);
        }
        if (!r.executed && cm.unactivated_resolved != nullptr) {
          cm.unactivated_resolved->inc();
        }
        if (sampler != nullptr) {
          r.record.weight = prop.live_mass;
          r.record.masked_weight = 1.0 - prop.live_mass;
        }
      }
      if (cfg.collect_dataset) {
        result.dataset.add(r.golden_features.as_array(), ml::Label::Correct);
        if (r.record.activated && r.record.trap == sim::TrapKind::None &&
            r.record.injected) {
          // Reached VM entry: the transition detector's input space.
          result.dataset.add(r.record.features.as_array(),
                             r.record.trace_diverged ? ml::Label::Incorrect
                                                     : ml::Label::Correct);
        }
      }
      InjectionRecord rec = std::move(r.record);
      // Streaming bookkeeping runs whether or not the record is kept in
      // RAM: the digest and effective mass define the campaign's output.
      effective += rec.weight > 0.0 ? 1.0 / rec.weight : 1.0;
      digest = digest_update(digest, rec);
      ++records_written;
      if (sink != nullptr) {
        frame.clear();
        encode_record(rec, fmt, frame);
        sink->append(shard_index, frame);
        if (progress != nullptr) {
          progress->sink_lag.store(sink->buffered_bytes(shard_index),
                                   std::memory_order_relaxed);
          progress->dropped.store(sink->stats(shard_index).dropped,
                                  std::memory_order_relaxed);
        }
      }
      if (cm.injections != nullptr) {
        cm.injections->inc();
        cm.golden_steps->inc(probe.steps);
        if (rec.activated) cm.activated->inc();
        if (is_manifested(rec.consequence)) cm.manifested->inc();
        if (rec.detected) cm.detected->inc();
        if (!rec.blackbox.empty()) cm.blackbox_dumps->inc();
        if (rec.forensics.has_value()) {
          const obs::ForensicsRecord& fx = *rec.forensics;
          if (cm.forensics_replays != nullptr) {
            cm.forensics_replays->inc();
            cm.forensics_replay_steps->inc(fx.replay_steps);
            if (!fx.heuristic_agrees) cm.forensics_mismatch->inc();
            if (fx.diverged) {
              cm.forensics_latency->observe(fx.divergence.step - inj.at_step);
              if (!fx.taint.empty()) {
                cm.forensics_taint->observe(fx.taint.back().mem_words);
              }
            }
            const auto cls =
                static_cast<std::size_t>(effective_undetected(rec));
            if (cm.forensics_class[cls] != nullptr) {
              cm.forensics_class[cls]->inc();
            }
          }
        }
      }
      if (tr != nullptr && !rec.detected &&
          rec.consequence == Consequence::AppSdc) {
        tr->instant("undetected_sdc", tid, "at_step", inj.at_step);
      }
      if (progress != nullptr) {
        progress->completed.fetch_add(1, std::memory_order_relaxed);
        if (rec.detected) {
          progress->detected[static_cast<int>(rec.technique)].fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      if (cfg.streaming.keep_records) {
        result.records.push_back(std::move(rec));
      }
      for (int g = 0; g < cfg.stream_gap; ++g) {
        experiment.advance(gen.next());
      }
    }
    if (streaming.journal != nullptr &&
        (i + 1) % cfg.streaming.checkpoint_every == 0 && i + 1 < quota) {
      write_checkpoint(static_cast<std::uint64_t>(i) + 1);
    }
    if (cfg.streaming.abort_after > 0 && i + 1 >= cfg.streaming.abort_after) {
      // Simulated SIGKILL (test hook): abandon buffered sink bytes and
      // return without the final flush/checkpoint, exactly as a killed
      // process would lose them.
      if (sink != nullptr) sink->discard(shard_index);
      return result;
    }
  }

  // -- end of shard: seal gauges, drain the sink, journal the finish --------
  if (oo.metrics) {
    // Each executed record stands in for 1/weight uniform draws; under
    // uniform sampling every weight is 1 and this equals the record count.
    // Per-shard gauges sum on merge into the campaign total.
    result.metrics.gauge("campaign.effective_injections")
        .set(static_cast<std::int64_t>(std::llround(effective)));
    if (oo.tracing) {
      result.metrics.gauge("obs.trace.dropped")
          .set(static_cast<std::int64_t>(result.trace.dropped()));
    }
  }
  if (sink != nullptr) {
    sink->flush(shard_index);
    mirror_sink_stats();
    result.records_streamed = records_written;
    if (progress != nullptr) {
      progress->sink_lag.store(0, std::memory_order_relaxed);
    }
  }
  if (streaming.journal != nullptr) {
    write_checkpoint(static_cast<std::uint64_t>(quota));
  }
  return result;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& cfg) {
  validate_campaign_config(cfg);
  if (cfg.analysis != nullptr) {
    // Artifacts are keyed to the exact program text; stale artifacts
    // would make the legal-edge sets wrong in both directions (missed
    // detections and false positives), so mismatches are config errors.
    const hv::Microvisor probe = hv::build_microvisor(cfg.machine);
    if (analysis::program_signature(probe.program) !=
        cfg.analysis->signature) {
      throw std::invalid_argument(
          "CampaignConfig: analysis artifacts were computed for a "
          "different program than this machine configuration assembles "
          "(signature mismatch) — re-run analyze_program with the same "
          "MicrovisorOptions");
    }
  }

  // Fleet mode pins the shard space to the fleet-wide unit count (the
  // same quotas and seeds the single-process run with shards = unit_count
  // uses) and this process executes only its assigned subset.
  const bool fleet = cfg.fleet.unit_count > 0;
  int shards = cfg.shards;
  if (fleet) {
    shards = cfg.fleet.unit_count;
  } else {
    if (shards <= 0) {
      shards = static_cast<int>(std::thread::hardware_concurrency());
      if (shards <= 0) shards = 4;
    }
    if (shards > cfg.injections && cfg.injections > 0) shards = cfg.injections;
  }
  std::vector<int> active;  // shard indices this process runs, ascending
  if (fleet) {
    active = cfg.fleet.units;
    std::sort(active.begin(), active.end());
  } else {
    active.resize(static_cast<std::size_t>(shards));
    std::iota(active.begin(), active.end(), 0);
  }

  const wl::WorkloadProfile profile =
      cfg.workload.mix.empty() ? uniform_sweep_profile() : cfg.workload;

  // -- streaming: record sink + checkpoint journal ---------------------------
  const CampaignConfig::StreamingConfig& st = cfg.streaming;
  CheckpointHeader header;
  header.seed = cfg.seed;
  header.injections = cfg.injections;
  header.shards = shards;
  header.activation_bias = cfg.activation_bias;
  header.warmup_activations = cfg.warmup_activations;
  header.stream_gap = cfg.stream_gap;
  header.importance = cfg.sampling.importance;
  header.checkpoint_every = st.checkpoint_every;
  header.records_format = static_cast<std::uint8_t>(st.records_format);
  if (fleet) header.units = active;
  JournalContents journal_state;
  bool resuming = false;
  if (!st.checkpoint_path.empty()) {
    journal_state = read_journal(st.checkpoint_path);
    if (journal_state.valid) {
      // An existing journal means "continue this campaign" — but only the
      // exact same campaign.  Resuming under a different identity would
      // silently splice two different record streams together.
      if (!(journal_state.header == header)) {
        throw std::invalid_argument(
            "CampaignConfig: checkpoint journal at " + st.checkpoint_path +
            " was written by a campaign with a different configuration "
            "(seed/injections/shards/sampling mismatch) — resume with the "
            "original config or point checkpoint_path elsewhere");
      }
      resuming = true;
    }
  }

  std::unique_ptr<obs::ShardedFileSink> sink;
  if (!st.records_path.empty()) {
    obs::ShardedFileSink::Options so;
    so.base_path = st.records_path;
    so.format = st.records_format;
    so.shard_count = static_cast<std::size_t>(shards);
    so.buffer_bytes = st.sink_buffer_bytes;
    if (fleet) {
      so.active_shards.reserve(active.size());
      for (int u : active) {
        so.active_shards.push_back(static_cast<std::size_t>(u));
      }
    }
    if (resuming) {
      // Truncate each shard stream to its journaled durable offset: frames
      // past the last commit point are torn tails, rewritten on resume.
      so.resume_offsets.assign(static_cast<std::size_t>(shards), 0);
      for (int s = 0; s < shards; ++s) {
        const auto& ck = journal_state.shards[static_cast<std::size_t>(s)];
        if (ck.has_value()) {
          so.resume_offsets[static_cast<std::size_t>(s)] = ck->sink_offset;
        }
      }
    }
    sink = std::make_unique<obs::ShardedFileSink>(std::move(so));
    if (!sink->ok()) {
      throw std::runtime_error("campaign: cannot open record sink at " +
                               st.records_path);
    }
  }

  std::unique_ptr<CheckpointJournal> journal;
  if (!st.checkpoint_path.empty()) {
    journal = resuming ? CheckpointJournal::append_to(st.checkpoint_path)
                       : CheckpointJournal::create(st.checkpoint_path, header);
    if (journal == nullptr || !journal->ok()) {
      throw std::runtime_error(
          "campaign: cannot open checkpoint journal at " + st.checkpoint_path);
    }
  }

  const auto t0 = Clock::now();
  const auto epoch = obs::TraceRecorder::Clock::now();

  // -- heartbeat machinery ---------------------------------------------------
  const bool heartbeat_on =
      cfg.heartbeat.interval_sec > 0 && cfg.heartbeat.callback != nullptr;
  std::unique_ptr<ShardProgress[]> progress;
  if (heartbeat_on) {
    progress = std::make_unique<ShardProgress[]>(
        static_cast<std::size_t>(shards));
  }
  const auto shard_quota = [&](int u) {
    return static_cast<std::uint64_t>(
        cfg.injections / shards + (u < cfg.injections % shards ? 1 : 0));
  };
  // This process's own workload: in fleet mode the sum of the assigned
  // units' quotas, otherwise exactly cfg.injections.
  std::uint64_t hb_total = 0;
  for (int u : active) hb_total += shard_quota(u);
  const auto make_sample = [&](bool last) {
    HeartbeatSample s;
    s.last = last;
    s.total = hb_total;
    s.shards.reserve(active.size());
    for (int u : active) {
      const ShardProgress& p = progress[u];
      HeartbeatSample::ShardThroughput tp;
      tp.shard = u;
      tp.completed = p.completed.load(std::memory_order_relaxed);
      s.shards.push_back(tp);
      s.completed += tp.completed;
      s.checkpointed += p.checkpointed.load(std::memory_order_relaxed);
      s.sink_lag_bytes += p.sink_lag.load(std::memory_order_relaxed);
      s.sink_dropped += p.dropped.load(std::memory_order_relaxed);
      for (int t = 0; t < kNumTechniques; ++t) {
        s.detected_by_technique[static_cast<std::size_t>(t)] +=
            p.detected[t].load(std::memory_order_relaxed);
      }
    }
    for (std::uint64_t d : s.detected_by_technique) s.detected_total += d;
    s.elapsed_sec = std::chrono::duration<double>(Clock::now() - t0).count();
    s.injections_per_sec =
        s.elapsed_sec > 0 ? static_cast<double>(s.completed) / s.elapsed_sec
                          : 0.0;
    return s;
  };

  std::jthread monitor;
  if (heartbeat_on) {
    monitor = std::jthread([&](std::stop_token st) {
      std::mutex m;
      std::condition_variable_any cv;
      std::uint64_t prev_completed = 0;
      std::vector<std::uint64_t> prev_shard(active.size(), 0);
      auto prev_t = Clock::now();
      std::unique_lock lk(m);
      const auto interval =
          std::chrono::duration<double>(cfg.heartbeat.interval_sec);
      while (!st.stop_requested()) {
        cv.wait_for(lk, st, interval, [] { return false; });
        if (st.stop_requested()) break;  // final sample comes post-join
        HeartbeatSample s = make_sample(false);
        const auto now = Clock::now();
        const double dt = std::chrono::duration<double>(now - prev_t).count();
        s.recent_per_sec =
            dt > 0 ? static_cast<double>(s.completed - prev_completed) / dt
                   : 0.0;
        // Per-shard recent rates feed the straggler monitor; shards that
        // already finished their quota are exempt (a done shard is not
        // slow, it is done).
        std::vector<double> rates;
        std::vector<std::size_t> unfinished;
        for (std::size_t k = 0; k < s.shards.size(); ++k) {
          HeartbeatSample::ShardThroughput& tp = s.shards[k];
          tp.recent_per_sec =
              dt > 0 ? static_cast<double>(tp.completed - prev_shard[k]) / dt
                     : 0.0;
          prev_shard[k] = tp.completed;
          if (tp.completed < shard_quota(tp.shard)) {
            unfinished.push_back(k);
            rates.push_back(tp.recent_per_sec);
          }
        }
        const std::vector<bool> lag =
            obs::flag_stragglers(rates, cfg.heartbeat.straggler_fraction);
        for (std::size_t j = 0; j < unfinished.size(); ++j) {
          if (lag[j]) {
            s.shards[unfinished[j]].straggler = true;
            ++s.stragglers;
          }
        }
        // ETA from the freshest rate available: the recent window tracks
        // load changes; the mean covers the first interval.
        const double rate =
            s.recent_per_sec > 0 ? s.recent_per_sec : s.injections_per_sec;
        s.eta_sec = rate > 0 && s.total > s.completed
                        ? static_cast<double>(s.total - s.completed) / rate
                        : 0.0;
        prev_completed = s.completed;
        prev_t = now;
        cfg.heartbeat.callback(s);
      }
    });
  }

  std::vector<CampaignResult> partials(static_cast<std::size_t>(shards));
  {
    std::vector<std::jthread> threads;
    threads.reserve(active.size());
    for (const int s : active) {
      threads.emplace_back([&cfg, &profile, &partials, &progress, &sink,
                            &journal, &journal_state, resuming, s, shards,
                            epoch] {
        ShardStreaming ss;
        ss.sink = sink.get();
        ss.journal = journal.get();
        if (resuming) {
          const auto& ck = journal_state.shards[static_cast<std::size_t>(s)];
          if (ck.has_value()) ss.resume = &*ck;
        }
        partials[static_cast<std::size_t>(s)] =
            run_shard(cfg, profile, s, shards, epoch,
                      progress ? &progress[s] : nullptr, ss);
      });
    }
  }  // jthreads join here

  if (heartbeat_on) {
    monitor.request_stop();
    monitor.join();
    // The exact end-of-campaign sample, from the caller's thread.
    HeartbeatSample s = make_sample(true);
    s.recent_per_sec = s.injections_per_sec;
    cfg.heartbeat.callback(s);
  }

  // Move-merge: records splice via move iterators, datasets via one bulk
  // append per shard, metrics/trace via per-shard merges.  Order stays by
  // shard index, so merged output is deterministic for a fixed
  // (seed, shards).
  CampaignResult merged;
  merged.resumed = resuming;
  if (cfg.obs.tracing) {
    // Global budget: each shard kept at most kShardTraceEvents, so the
    // merged buffer never drops what the shards kept.
    merged.trace = obs::TraceRecorder(
        kShardTraceEvents * static_cast<std::size_t>(shards), epoch);
  }
  std::size_t total_records = 0, total_rows = 0;
  for (const CampaignResult& p : partials) {
    total_records += p.records.size();
    total_rows += p.dataset.size();
  }
  merged.records.reserve(total_records);
  merged.dataset.reserve(total_rows);
  for (CampaignResult& p : partials) {
    merged.records.insert(merged.records.end(),
                          std::make_move_iterator(p.records.begin()),
                          std::make_move_iterator(p.records.end()));
    merged.dataset.append(p.dataset);
    merged.metrics.merge_from(p.metrics);
    merged.trace.merge_from(std::move(p.trace));
    merged.records_streamed += p.records_streamed;
  }
  if (cfg.obs.metrics) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double produced =
        merged.records_streamed > 0
            ? static_cast<double>(merged.records_streamed)
            : static_cast<double>(merged.records.size());
    merged.metrics.gauge("campaign.shards").set(shards);
    merged.metrics.gauge("campaign.elapsed_us")
        .set(static_cast<std::int64_t>(elapsed * 1e6));
    merged.metrics.gauge("campaign.injections_per_sec")
        .set(elapsed > 0 ? static_cast<std::int64_t>(produced / elapsed) : 0);
    // campaign.effective_injections is the sum of the per-shard gauges
    // (each shard journals and seals its own accumulator, which is what
    // makes the value resume-stable); only the rate derives here.
    const double effective = static_cast<double>(
        merged.metrics.gauge("campaign.effective_injections").value());
    merged.metrics.gauge("campaign.effective_injections_per_sec")
        .set(elapsed > 0 ? static_cast<std::int64_t>(effective / elapsed)
                         : 0);
  }
  return merged;
}

}  // namespace xentry::fault
