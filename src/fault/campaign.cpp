#include "fault/campaign.hpp"

#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "fault/sampler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
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
  if (cfg.shards < 1) {
    fail("shards must be >= 1, got " + std::to_string(cfg.shards));
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
           "no finite timing envelopes — install analyze_program(...) "
           "output for this machine");
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
           "carry no vulnerability map — install analyze_program(...) "
           "output for this machine");
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
  /// Faulted runs the engine proved to hang instead of running them out.
  obs::Counter* hangs_proven = nullptr;
  // Forensics (null unless obs.forensics && obs.metrics).
  obs::Counter* forensics_replays = nullptr;
  obs::Counter* forensics_replay_steps = nullptr;
  obs::Counter* forensics_mismatch = nullptr;
  /// Indexed by UndetectedClass ordinal; NotApplicable (0) stays null.
  std::array<obs::Counter*, 5> forensics_class{};
  obs::Log2Histogram* forensics_latency = nullptr;
  obs::Log2Histogram* forensics_taint = nullptr;

  CampaignMetricHandles(const CampaignConfig& cfg, obs::MetricsRegistry& reg) {
    if (!cfg.obs.metrics) return;
    injections = &reg.counter("campaign.injections");
    activated = &reg.counter("campaign.activated");
    manifested = &reg.counter("campaign.manifested");
    detected = &reg.counter("campaign.detected");
    golden_steps = &reg.counter("campaign.golden_steps");
    blackbox_dumps = &reg.counter("campaign.blackbox_dumps");
    unactivated_resolved = &reg.counter("campaign.unactivated_resolved");
    hangs_proven = &reg.counter("campaign.hangs_proven");
    if (cfg.sampling.importance) {
      analytic_slots = &reg.counter("campaign.analytic_slots");
    }
    if (!cfg.obs.forensics) return;
    forensics_replays = &reg.counter("forensics.replays");
    forensics_replay_steps = &reg.counter("forensics.replay_steps");
    forensics_mismatch = &reg.counter("forensics.heuristic_mismatch");
    for (int c = 1; c < 5; ++c) {
      forensics_class[static_cast<std::size_t>(c)] = &reg.counter(
          "forensics.class." +
          std::string(undetected_class_name(static_cast<UndetectedClass>(c))));
    }
    forensics_latency = &reg.histogram("forensics.first_divergence_latency");
    forensics_taint = &reg.histogram("forensics.taint_words");
  }
};

/// One shard's work: its own machines, generator, RNG, and telemetry.
/// The shard's running state is `ck_`, the ShardCheckpoint its journal
/// persists: it starts fresh or from the journal line, every emitted
/// record advances it, and each checkpoint fills in the offsets, RNG
/// cursors and golden image before appending it.  run() reads top to
/// bottom: resume-or-warmup, then per slot probe, draw, run, emit, gaps
/// and checkpoint, then finish.
class ShardLoop {
 public:
  /// `profile` is resolved once in run_campaign and shared read-only;
  /// `progress` is null unless the heartbeat is enabled; `sink` and
  /// `journal` are shared by all shards (per-shard streams inside).
  ShardLoop(const CampaignConfig& cfg, const wl::WorkloadProfile& profile,
            int shard, std::uint64_t quota,
            obs::TraceRecorder::Clock::time_point epoch,
            ShardProgress* progress, obs::ShardedFileSink* sink,
            CheckpointJournal* journal)
      : cfg_(cfg),
        shard_(shard),
        quota_(quota),
        seed_(cfg.seed * 0x9e3779b97f4a7c15ull +
              static_cast<std::uint64_t>(shard)),
        progress_(progress),
        sink_(sink),
        journal_(journal),
        tr_(cfg.obs.tracing ? &result_.trace : nullptr),
        golden_(cfg.machine),
        faulty_(cfg.machine),
        flight_(cfg.obs.flight_recorder_depth),
        cm_(cfg, result_.metrics),
        xentry_(cfg.xentry),
        experiment_(golden_, faulty_, xentry_, cfg.outcome),
        gen_(golden_, profile, seed_),
        rng_(seed_ ^ 0xc2b2ae3d27d4eb4full),
        biased_(cfg.activation_bias) {
    const obs::Options& oo = cfg.obs;
    ck_.shard = shard;
    ck_.digest = kDigestBasis;
    if (cfg.streaming.keep_records) {
      result_.records.reserve(static_cast<std::size_t>(quota));
    }
    result_.trace = obs::TraceRecorder(kShardTraceEvents, epoch);
    // Both machines run the selected engine: the golden probe and the
    // faulty run must retire identical streams for the diff to mean
    // anything.
    golden_.set_execution_engine(cfg.xentry.engine);
    faulty_.set_execution_engine(cfg.xentry.engine);
    // Telemetry placement follows the cost structure: the FAULTY machine
    // runs exactly once per injection (the interesting run — behavior
    // under fault), so it carries the per-VM-exit span and the
    // flight-recorder ring.  The GOLDEN machine runs ~4x as often (probe +
    // advances), so it carries only the passive snapshot/restore
    // histograms; its probe run is timed by the enclosing
    // phase:golden_probe span instead.  The hooks attach in run().
    if (oo.tracing) {
      faulty_hooks_.trace = &result_.trace;
      faulty_hooks_.tid = shard;
    }
    if (oo.flight_recorder) {
      faulty_hooks_.flight = &flight_;
      faulty_hooks_.flight_source = 1;
      experiment_.set_flight_recorder(&flight_);
    }
    if (oo.metrics) {
      golden_hooks_.snapshot_ns = faulty_hooks_.snapshot_ns =
          &result_.metrics.histogram("machine.snapshot_ns");
      golden_hooks_.restore_ns = faulty_hooks_.restore_ns =
          &result_.metrics.histogram("machine.restore_ns");
      xentry_.set_metrics(&result_.metrics);
    }
    if (!cfg.model.empty()) xentry_.set_model(cfg.model);
    if (cfg.analysis != nullptr) xentry_.set_analysis(cfg.analysis.get());
    if (oo.forensics) {
      InjectionExperiment::ForensicsConfig fc;
      fc.enabled = true;
      fc.sample_every = oo.forensics_sample_every;
      experiment_.set_forensics(fc);
    }
    if (cfg.sampling.importance) {
      sampler_ = std::make_unique<ImportanceSampler>(
          cfg.analysis->vuln, golden_.microvisor().program,
          cfg.sampling.weight_floor, seed_ ^ 0x94d049bb133111ebull);
    }
  }
  // The machines and the experiment hold addresses of members.
  ShardLoop(const ShardLoop&) = delete;
  ShardLoop& operator=(const ShardLoop&) = delete;

  /// Runs the shard from `resume` (its latest journal line; null on a
  /// fresh start) to its quota.
  CampaignResult run(const ShardCheckpoint* resume) {
    resume_or_warmup(resume);
    // Attached only now, so a resume's golden restore is not timed.
    if (cfg_.obs.metrics) golden_.set_telemetry(&golden_hooks_);
    if (cfg_.obs.any()) faulty_.set_telemetry(&faulty_hooks_);

    InjectionExperiment::GoldenProbe probe;  // buffers reused every slot
    while (ck_.iterations < quota_) {
      const hv::Activation act = gen_.next();
      // The probe run doubles as the experiment's golden run: the golden
      // machine advances to its post-run state here and run_slot only has
      // to execute the faulted machine.
      {
        obs::TraceRecorder::Span span(tr_, "phase:golden_probe", shard_);
        experiment_.probe_golden_advance(act, probe);
      }
      if (probe.steps == 0) {
        // Degenerate activation: rewind and skip the injection.  No record
        // exists and no further draws are consumed, but the checkpoint /
        // abort bookkeeping below still runs — iteration counts include
        // degenerate slots, so resume boundaries stay well-defined.
        golden_.restore(probe.pre);
      } else {
        const ImportanceSampler::Proposal prop = draw(probe);
        InjectionExperiment::Result r = run_slot(act, prop, probe);
        if (cfg_.collect_dataset) {
          result_.dataset.add(r.golden_features.as_array(),
                              ml::Label::Correct);
          if (r.record.activated && r.record.trap == sim::TrapKind::None &&
              r.record.injected) {
            // Reached VM entry: the transition detector's input space.
            result_.dataset.add(r.record.features.as_array(),
                                r.record.trace_diverged
                                    ? ml::Label::Incorrect
                                    : ml::Label::Correct);
          }
        }
        emit(std::move(r.record), prop.injection.at_step, probe.steps);
        for (int g = 0; g < cfg_.stream_gap; ++g) {
          experiment_.advance(gen_.next());
        }
      }
      ++ck_.iterations;
      if (journal_ != nullptr && ck_.iterations < quota_ &&
          ck_.iterations % static_cast<std::uint64_t>(
                               cfg_.streaming.checkpoint_every) == 0) {
        checkpoint();
      }
      if (cfg_.streaming.abort_after > 0 &&
          ck_.iterations >=
              static_cast<std::uint64_t>(cfg_.streaming.abort_after)) {
        // Simulated SIGKILL (test hook): abandon buffered sink bytes and
        // return without the final flush/checkpoint, exactly as a killed
        // process would lose them.
        if (sink_ != nullptr) sink_->discard(shard_index());
        return std::move(result_);
      }
    }
    return finish();
  }

 private:
  std::size_t shard_index() const { return static_cast<std::size_t>(shard_); }

  /// The one place a shard reads its journal line.  A fresh shard warms
  /// its golden machine up; a resumed one merges in the journaled
  /// registry, rewinds the golden image and every RNG cursor, and adopts
  /// the journaled running state.
  void resume_or_warmup(const ShardCheckpoint* resume) {
    if (resume == nullptr) {
      obs::TraceRecorder::Span warm(tr_, "phase:warmup", shard_);
      for (int i = 0; i < cfg_.warmup_activations; ++i) {
        experiment_.advance(gen_.next());
      }
    } else {
      // Merged into the registry the handles already point into, so they
      // stay valid; merged into empty metrics it is the journaled one.
      if (cfg_.obs.metrics) result_.metrics.merge_from(resume->metrics);
      // The faulty machine realigns from the golden probe on every
      // injection, so only golden state is journaled.
      restore_machine(golden_, *resume);
      // The textual mt19937_64 encoding is engine-exact, so the draw
      // sequences continue bit-identically from the checkpoint boundary.
      if (!rng_state_from_string(gen_.rng(), resume->gen_rng) ||
          !rng_state_from_string(rng_, resume->main_rng) ||
          (sampler_ != nullptr &&
           !rng_state_from_string(sampler_->aux(), resume->aux_rng))) {
        throw std::runtime_error(
            "campaign: checkpoint RNG state failed to parse (journal "
            "written by an incompatible build?)");
      }
      gen_.set_activations_generated(resume->activations_generated);
      experiment_.set_forensics_counter(resume->forensics_counter);
      ck_ = *resume;
      if (progress_ != nullptr) {
        progress_->completed.store(ck_.records_written,
                                   std::memory_order_relaxed);
        progress_->checkpointed.store(ck_.records_written,
                                      std::memory_order_relaxed);
      }
    }
  }

  ImportanceSampler::Proposal draw(
      const InjectionExperiment::GoldenProbe& probe) {
    ImportanceSampler::Proposal prop;
    if (sampler_ != nullptr) {
      prop = biased_(rng_)
                 ? sampler_->propose_activated(rng_, probe.trace)
                 : sampler_->propose_uniform(rng_, probe.steps, probe.trace);
    } else {
      prop.injection =
          biased_(rng_)
              ? InjectionExperiment::draw_activated_injection(
                    rng_, probe.trace, golden_.microvisor().program)
              : InjectionExperiment::draw_injection(rng_, probe.steps);
    }
    return prop;
  }

  InjectionExperiment::Result run_slot(
      const hv::Activation& act, const ImportanceSampler::Proposal& prop,
      const InjectionExperiment::GoldenProbe& probe) {
    InjectionExperiment::Result r;
    if (prop.analytic) {
      // Slot resolved without a faulted run: its live mass sits below the
      // weight floor (or rejection redraw exhausted), so the whole slot is
      // attributed to Masked.  The record mirrors what the run would have
      // produced except that no activation bookkeeping exists
      // (activated = false) and the features are the golden run's.
      InjectionRecord& rec = r.record;
      rec.reason = act.reason;
      rec.activation_seed = act.seed;
      rec.vcpu = act.vcpu;
      rec.injection = prop.injection;
      rec.injected = true;
      rec.consequence = Consequence::Masked;
      rec.features = FeatureVector::from(act.reason, probe.counters);
      r.golden_features = rec.features;
      r.golden_ok = probe.reached_vm_entry;
      if (cm_.analytic_slots != nullptr) cm_.analytic_slots->inc();
      return r;
    }
    {
      // Covers the injection, the faulted run under Xentry interception,
      // and the outcome classification.
      obs::TraceRecorder::Span span(tr_, "phase:faulted_run", shard_);
      span.arg("at_step", prop.injection.at_step);
      r = experiment_.run_one(act, prop.injection, probe);
    }
    if (!r.executed && cm_.unactivated_resolved != nullptr) {
      cm_.unactivated_resolved->inc();
    }
    if (r.hang_proven && cm_.hangs_proven != nullptr) cm_.hangs_proven->inc();
    if (sampler_ != nullptr) {
      r.record.weight = prop.live_mass;
      r.record.masked_weight = 1.0 - prop.live_mass;
    }
    return r;
  }

  /// Every per-record side effect, in one step.  It runs whether or not
  /// the record is kept in RAM: the digest and effective mass define the
  /// campaign's output.
  void emit(InjectionRecord&& rec, std::uint64_t at_step,
            std::uint64_t golden_steps) {
    ck_.effective += rec.weight > 0.0 ? 1.0 / rec.weight : 1.0;
    ck_.digest = digest_update(ck_.digest, rec);
    ++ck_.records_written;
    if (sink_ != nullptr) {
      frame_.clear();
      encode_record(rec, cfg_.streaming.records_format, frame_);
      sink_->append(shard_index(), frame_);
      if (progress_ != nullptr) {
        progress_->sink_lag.store(sink_->buffered_bytes(shard_index()),
                                  std::memory_order_relaxed);
        progress_->dropped.store(sink_->stats(shard_index()).dropped,
                                 std::memory_order_relaxed);
      }
    }
    if (cm_.injections != nullptr) {
      cm_.injections->inc();
      cm_.golden_steps->inc(golden_steps);
      if (rec.activated) cm_.activated->inc();
      if (is_manifested(rec.consequence)) cm_.manifested->inc();
      if (rec.detected) cm_.detected->inc();
      if (!rec.blackbox().empty()) cm_.blackbox_dumps->inc();
      if (rec.forensics() != nullptr && cm_.forensics_replays != nullptr) {
        const obs::ForensicsRecord& fx = *rec.forensics();
        cm_.forensics_replays->inc();
        cm_.forensics_replay_steps->inc(fx.replay_steps);
        if (!fx.heuristic_agrees) cm_.forensics_mismatch->inc();
        if (fx.diverged) {
          cm_.forensics_latency->observe(fx.divergence.step - at_step);
          if (!fx.taint.empty()) {
            cm_.forensics_taint->observe(fx.taint.back().mem_words);
          }
        }
        const auto cls = static_cast<std::size_t>(effective_undetected(rec));
        if (cm_.forensics_class[cls] != nullptr) {
          cm_.forensics_class[cls]->inc();
        }
      }
    }
    if (tr_ != nullptr && !rec.detected &&
        rec.consequence == Consequence::AppSdc) {
      tr_->instant("undetected_sdc", shard_, "at_step", at_step);
    }
    if (progress_ != nullptr) {
      progress_->completed.fetch_add(1, std::memory_order_relaxed);
      if (rec.detected) {
        progress_->detected[static_cast<int>(rec.technique)].fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    if (cfg_.streaming.keep_records) result_.records.push_back(std::move(rec));
  }

  /// Drains the shard's sink buffer and mirrors the sink's stats into the
  /// registry as deltas since the previous drain.
  void flush_sink() {
    if (sink_ == nullptr) return;
    sink_->flush(shard_index());
    if (progress_ != nullptr) {
      progress_->sink_lag.store(0, std::memory_order_relaxed);
    }
    if (!cfg_.obs.metrics) return;
    const obs::SinkShardStats& now = sink_->stats(shard_index());
    obs::MetricsRegistry& m = result_.metrics;
    m.counter("obs.sink.appends").inc(now.appends - mirrored_.appends);
    m.counter("obs.sink.appended_bytes")
        .inc(now.appended_bytes - mirrored_.appended_bytes);
    m.counter("obs.sink.flushes").inc(now.flushes - mirrored_.flushes);
    m.counter("obs.sink.flushed_bytes")
        .inc(now.flushed_bytes - mirrored_.flushed_bytes);
    m.counter("obs.sink.backpressure_flushes")
        .inc(now.backpressure_flushes - mirrored_.backpressure_flushes);
    m.counter("obs.sink.dropped").inc(now.dropped - mirrored_.dropped);
    mirrored_ = now;
  }

  /// Journals `ck_`.  Commit order is what makes a kill at any instant
  /// recoverable: durable records first, then the journal line naming
  /// their offset and carrying the registry.  A kill between the two
  /// leaves a tail beyond the last journaled offset, which resume
  /// truncates.  A journal implies a sink (validate_campaign_config).
  void checkpoint() {
    flush_sink();
    ck_.sink_offset = sink_->offset(shard_index());
    if (cfg_.obs.metrics) ck_.metrics = result_.metrics;
    ck_.forensics_counter = experiment_.forensics_counter();
    ck_.activations_generated = gen_.activations_generated();
    ck_.gen_rng = rng_state_string(gen_.rng());
    ck_.main_rng = rng_state_string(rng_);
    if (sampler_ != nullptr) ck_.aux_rng = rng_state_string(sampler_->aux());
    capture_machine(golden_, ck_);
    journal_->append(ck_);
    if (progress_ != nullptr) {
      progress_->checkpointed.store(ck_.records_written,
                                    std::memory_order_relaxed);
    }
  }

  /// End of shard: seal the gauges, then either journal the final
  /// checkpoint (which drains the sink) or drain the sink alone.
  CampaignResult finish() {
    if (cfg_.obs.metrics) {
      // Each executed record stands in for 1/weight uniform draws; under
      // uniform sampling every weight is 1 and this equals the record
      // count.  Per-shard gauges sum on merge into the campaign total.
      result_.metrics.gauge("campaign.effective_injections")
          .set(static_cast<std::int64_t>(std::llround(ck_.effective)));
      if (tr_ != nullptr) {
        result_.metrics.gauge("obs.trace.dropped")
            .set(static_cast<std::int64_t>(result_.trace.dropped()));
      }
    }
    if (journal_ != nullptr) {
      checkpoint();
    } else {
      flush_sink();
    }
    if (sink_ != nullptr) result_.records_streamed = ck_.records_written;
    return std::move(result_);
  }

  const CampaignConfig& cfg_;
  const int shard_;
  const std::uint64_t quota_;
  const std::uint64_t seed_;
  ShardProgress* const progress_;
  obs::ShardedFileSink* const sink_;  // final: calls devirtualize
  CheckpointJournal* const journal_;

  CampaignResult result_;
  ShardCheckpoint ck_;
  obs::TraceRecorder* const tr_;  // null unless obs.tracing

  hv::Machine golden_;
  hv::Machine faulty_;
  obs::FlightRecorder flight_;
  obs::MachineTelemetry golden_hooks_, faulty_hooks_;
  CampaignMetricHandles cm_;
  Xentry xentry_;
  InjectionExperiment experiment_;
  wl::WorkloadGenerator gen_;
  std::mt19937_64 rng_;
  std::bernoulli_distribution biased_;
  /// Importance sampling: the redraw stream is per shard and disjoint from
  /// the main stream, so skipping masked candidates never perturbs the
  /// activation/probe sequence of the slots that do execute.
  std::unique_ptr<ImportanceSampler> sampler_;

  std::string frame_;               // encode buffer, reused per record
  obs::SinkShardStats mirrored_{};  // sink stats already mirrored
};

/// One shard's work (see ShardLoop); an empty quota yields an empty result.
CampaignResult run_shard(const CampaignConfig& cfg,
                         const wl::WorkloadProfile& profile, int shard,
                         std::uint64_t quota,
                         obs::TraceRecorder::Clock::time_point epoch,
                         ShardProgress* progress, obs::ShardedFileSink* sink,
                         CheckpointJournal* journal,
                         const ShardCheckpoint* resume) {
  if (quota == 0) return CampaignResult();
  return ShardLoop(cfg, profile, shard, quota, epoch, progress, sink, journal)
      .run(resume);
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

  int shards = cfg.shards;
  if (shards > cfg.injections && cfg.injections > 0) shards = cfg.injections;

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
  JournalContents journal_state;
  bool resuming = false;
  if (!st.checkpoint_path.empty()) {
    journal_state = read_journal(st.checkpoint_path);
    if (!journal_state.error.empty()) {
      throw std::runtime_error("campaign: cannot resume from a corrupt "
                               "checkpoint journal: " +
                               journal_state.error);
    }
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
    // Resume cuts a torn final line away first: the next line would be
    // glued onto it.
    std::error_code ec;
    if (resuming) {
      std::filesystem::resize_file(st.checkpoint_path,
                                   journal_state.intact_bytes, ec);
    }
    journal = resuming ? CheckpointJournal::append_to(st.checkpoint_path)
                       : CheckpointJournal::create(st.checkpoint_path, header);
    if (ec || journal == nullptr || !journal->ok()) {
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
  const auto shard_quota = [&](int sh) {
    return static_cast<std::uint64_t>(
        cfg.injections / shards + (sh < cfg.injections % shards ? 1 : 0));
  };
  const auto make_sample = [&](bool last) {
    HeartbeatSample s;
    s.last = last;
    s.total = static_cast<std::uint64_t>(cfg.injections);
    for (int sh = 0; sh < shards; ++sh) {
      const ShardProgress& p = progress[sh];
      s.completed += p.completed.load(std::memory_order_relaxed);
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

  // Shards are the record streams; threads only run them.  Each worker
  // takes whole shards from one counter, and the merge below goes in
  // shard order, so the thread count never reaches the records.
  std::vector<CampaignResult> partials(static_cast<std::size_t>(shards));
  {
    const int workers = std::min(
        shards, std::max(1, static_cast<int>(
                                std::thread::hardware_concurrency())));
    std::atomic<int> next_shard{0};
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (int s = next_shard++; s < shards; s = next_shard++) {
          // The shard's latest journal line; null on a fresh start.
          const ShardCheckpoint* resume = nullptr;
          if (resuming) {
            const auto& ck =
                journal_state.shards[static_cast<std::size_t>(s)];
            if (ck.has_value()) resume = &*ck;
          }
          partials[static_cast<std::size_t>(s)] = run_shard(
              cfg, profile, s, shard_quota(s), epoch,
              progress ? &progress[s] : nullptr, sink.get(), journal.get(),
              resume);
        }
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
