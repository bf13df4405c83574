#include "perfbench/ledger.hpp"

#include <memory>
#include <random>
#include <stdexcept>

#include "fault/checkpoint.hpp"
#include "fault/experiment.hpp"
#include "fault/record_io.hpp"
#include "fault/sampler.hpp"
#include "perfbench/workloads.hpp"

namespace perfbench {

using namespace xentry;

namespace {

/// One shadow measurement every this many faulted runs: enough samples
/// for a p99, few enough that the shadow pass stays cheap.
constexpr int kShadowEvery = 4;

/// Times one call into a layer and books it under `span`.
template <class F>
decltype(auto) timed(Ledger& l, Span span, F&& f) {
  struct Book {
    Ledger& l;
    Span span;
    std::int64_t t0 = now_ns();
    ~Book() { l.add(span, now_ns() - t0); }
  } book{l, span};
  return f();
}

/// Splits the faulted run of `inj` into its parts on the faulty machine,
/// which every campaign use re-syncs first: activation set-up, a bare
/// golden run, and Xentry::observe against a bare faulted run.
void shadow_measure(Ledger& sh, hv::Machine& faulty, Xentry& xentry,
                    const hv::Activation& act, const hv::Injection& inj,
                    const fault::InjectionExperiment::GoldenProbe& probe,
                    std::vector<sim::Addr>& trace) {
  faulty.restore(probe.pre);
  timed(sh, kBeginActivation, [&] { faulty.begin_activation(act); });

  faulty.restore(probe.pre);
  hv::RunOptions gopts;
  gopts.trace = &trace;
  trace.clear();
  const hv::RunResult golden =
      timed(sh, kHvRun, [&] { return faulty.run(act, gopts); });
  sh.shadow_steps += golden.steps;

  hv::RunOptions fopts;
  fopts.trace = &trace;
  fopts.injection = &inj;
  faulty.restore(probe.pre);
  trace.clear();
  std::int64_t t0 = now_ns();
  faulty.run(act, fopts);
  const std::int64_t bare = now_ns() - t0;
  faulty.restore(probe.pre);
  trace.clear();
  t0 = now_ns();
  xentry.observe(faulty, act, fopts);
  const std::int64_t observe = now_ns() - t0;
  sh.add(kObserve, observe);
  sh.add(kDetectOverhead, observe - bare);
}

/// run_shard's loop for one shard, minus telemetry, resume and heartbeat.
void replay_shard(const fault::CampaignConfig& cfg,
                  const wl::WorkloadProfile& profile, int shard_index,
                  int num_shards, obs::RecordSink* sink,
                  fault::CheckpointJournal* journal,
                  fault::CampaignResult& out, Ledger& l, Ledger* sh,
                  bool perturb) {
  const int quota = cfg.injections / num_shards +
                    (shard_index < cfg.injections % num_shards ? 1 : 0);
  if (quota == 0) return;
  if (cfg.xentry.engine != sim::EngineKind::Fast) {
    throw std::invalid_argument("replay: only the fast engine is replayed");
  }
  hv::Machine golden(cfg.machine);
  hv::Machine faulty(cfg.machine);
  Xentry xentry(cfg.xentry);
  Xentry shadow_xentry(cfg.xentry);
  if (!cfg.model.empty()) {
    xentry.set_model(cfg.model);
    shadow_xentry.set_model(cfg.model);
  }
  if (cfg.analysis != nullptr) {
    xentry.set_analysis(cfg.analysis.get());
    shadow_xentry.set_analysis(cfg.analysis.get());
  }
  fault::InjectionExperiment experiment(golden, faulty, xentry, cfg.outcome);

  const std::uint64_t shard_seed =
      cfg.seed * 0x9e3779b97f4a7c15ull +
      static_cast<std::uint64_t>(shard_index);
  wl::WorkloadGenerator gen(golden, profile, shard_seed);
  std::mt19937_64 rng(shard_seed ^ 0xc2b2ae3d27d4eb4full);
  std::unique_ptr<fault::ImportanceSampler> sampler;
  if (cfg.sampling.importance) {
    sampler = std::make_unique<fault::ImportanceSampler>(
        cfg.analysis->vuln, golden.microvisor().program,
        cfg.sampling.weight_floor, shard_seed ^ 0x94d049bb133111ebull);
  }
  for (int i = 0; i < cfg.warmup_activations; ++i) {
    experiment.advance(gen.next());
  }
  if (perturb) rng.discard(1);  // a replay out of step with run_shard

  // The program's own snapshot/restore timers see the loop's calls.
  obs::MachineTelemetry hooks;
  if (sh == nullptr) {
    hooks.snapshot_ns = &l.snapshot_ns;
    hooks.restore_ns = &l.restore_ns;
    golden.set_telemetry(&hooks);
    faulty.set_telemetry(&hooks);
  }

  const obs::RecordFormat fmt = cfg.streaming.records_format;
  std::uint64_t records_written = 0;
  std::uint64_t digest = fault::kDigestBasis;
  double effective = 0.0;
  std::string frame;
  std::vector<sim::Addr> shadow_trace;
  const auto write_checkpoint = [&](std::uint64_t iterations_done) {
    if (sink != nullptr) sink->flush(static_cast<std::size_t>(shard_index));
    fault::ShardCheckpoint ck;
    ck.shard = shard_index;
    ck.iterations = iterations_done;
    ck.records_written = records_written;
    ck.digest = digest;
    ck.effective = effective;
    ck.sink_offset = sink != nullptr
                         ? sink->offset(static_cast<std::size_t>(shard_index))
                         : 0;
    ck.forensics_counter = experiment.forensics_counter();
    ck.activations_generated = gen.activations_generated();
    ck.gen_rng = fault::rng_state_string(gen.rng());
    ck.main_rng = fault::rng_state_string(rng);
    if (sampler != nullptr) {
      ck.aux_rng = fault::rng_state_string(sampler->aux());
    }
    fault::capture_machine(golden, ck);
    journal->append(ck);
  };

  if (cfg.streaming.keep_records) {
    out.records.reserve(out.records.size() + static_cast<std::size_t>(quota));
  }
  std::bernoulli_distribution biased(cfg.activation_bias);
  fault::InjectionExperiment::GoldenProbe probe;
  l.reserve(static_cast<std::size_t>(quota) *
            static_cast<std::size_t>(cfg.stream_gap + 1) + 16);
  if (sh != nullptr) {
    sh->reserve(static_cast<std::size_t>(quota / kShadowEvery) + 16);
  }
  // Laps: each loop span runs from the previous mark to the end of its
  // call, so the spans tile the loop and glue code between two calls is
  // booked to the later one.  Shadow measurements restart the mark.
  std::int64_t mark = 0;
  const auto lap = [&](Span s) {
    const std::int64_t t = now_ns();
    l.add(s, t - mark);
    mark = t;
  };
  const std::int64_t loop_start = now_ns();
  for (int i = 0; i < quota; ++i) {
    const std::int64_t iter_start = mark = now_ns();
    const hv::Activation act = gen.next();
    lap(kNext);
    experiment.probe_golden_advance(act, probe);
    lap(kGoldenProbe);
    l.golden_steps += probe.steps;
    if (probe.steps == 0) {
      golden.restore(probe.pre);
      lap(kGoldenProbe);
    } else {
      fault::ImportanceSampler::Proposal prop;
      if (sampler != nullptr) {
        prop = biased(rng) ? sampler->propose_activated(rng, probe.trace)
                           : sampler->propose_uniform(rng, probe.steps,
                                                      probe.trace);
      } else {
        prop.injection =
            biased(rng)
                ? fault::InjectionExperiment::draw_activated_injection(
                      rng, probe.trace, golden.microvisor().program)
                : fault::InjectionExperiment::draw_injection(rng, probe.steps);
      }
      const hv::Injection inj = prop.injection;
      fault::InjectionExperiment::Result r;
      if (prop.analytic) {
        // Resolved without a faulted run: the record mirrors what the run
        // would have produced, with the golden run's features.
        fault::InjectionRecord& rec0 = r.record;
        rec0.reason = act.reason;
        rec0.activation_seed = act.seed;
        rec0.vcpu = act.vcpu;
        rec0.injection = inj;
        rec0.injected = true;
        rec0.consequence = fault::Consequence::Masked;
        rec0.features = FeatureVector::from(act.reason, probe.counters);
        r.golden_features = rec0.features;
        r.golden_ok = probe.reached_vm_entry;
        ++l.analytic;
        lap(kDraw);
      } else {
        lap(kDraw);
        const bool measure =
            sh != nullptr && l.faulted_runs % kShadowEvery == 0;
        if (measure) {
          shadow_measure(*sh, faulty, shadow_xentry, act, inj, probe,
                         shadow_trace);
          mark = now_ns();
        }
        r = experiment.run_one(act, inj, probe);
        if (sampler != nullptr) {
          r.record.weight = prop.live_mass;
          r.record.masked_weight = 1.0 - prop.live_mass;
        }
        lap(kFaultedRun);
        ++l.faulted_runs;
        if (r.record.trap == sim::TrapKind::Watchdog) ++l.hangs;
        if (measure && r.record.activated &&
            r.record.trap == sim::TrapKind::None) {
          timed(*sh, kDiff, [&] {
            return hv::Machine::diff_persistent_state(golden, faulty);
          });
          mark = now_ns();
        }
      }
      if (cfg.collect_dataset) {
        out.dataset.add(r.golden_features.as_array(), ml::Label::Correct);
        if (r.record.activated && r.record.trap == sim::TrapKind::None &&
            r.record.injected) {
          out.dataset.add(r.record.features.as_array(),
                          r.record.trace_diverged ? ml::Label::Incorrect
                                                  : ml::Label::Correct);
        }
        lap(kDataset);
      }
      const fault::InjectionRecord& rec = r.record;
      effective += rec.weight > 0.0 ? 1.0 / rec.weight : 1.0;
      digest = fault::digest_update(digest, rec);
      ++records_written;
      ++l.records;
      lap(kDigest);
      if (sink != nullptr) {
        frame.clear();
        fault::encode_record(rec, fmt, frame);
        lap(kEncode);
        l.record_bytes += frame.size();
        sink->append(static_cast<std::size_t>(shard_index), frame);
        lap(kSinkAppend);
      }
      if (cfg.streaming.keep_records) {
        out.records.push_back(std::move(r.record));
        lap(kKeepRecord);
      }
      for (int g = 0; g < cfg.stream_gap; ++g) {
        const hv::Activation gap = gen.next();
        lap(kNext);
        experiment.advance(gap);
        lap(kAdvance);
      }
    }
    if (journal != nullptr && (i + 1) % cfg.streaming.checkpoint_every == 0 &&
        i + 1 < quota) {
      write_checkpoint(static_cast<std::uint64_t>(i) + 1);
      lap(kCheckpoint);
    }
    l.add(kIteration, mark - iter_start);
  }
  mark = now_ns();
  if (sink != nullptr) {
    sink->flush(static_cast<std::size_t>(shard_index));
    out.records_streamed += records_written;
    lap(kCheckpoint);
  }
  if (journal != nullptr) {
    write_checkpoint(static_cast<std::uint64_t>(quota));
    lap(kCheckpoint);
  }
  l.loop_ns += now_ns() - loop_start;
  golden.set_telemetry(nullptr);
  faulty.set_telemetry(nullptr);
}

}  // namespace

void Ledger::reserve(std::size_t calls) {
  for (std::vector<std::int64_t>& v : spans) {
    const std::size_t size = v.size();
    v.resize(size + calls);
    v.resize(size);
  }
}

void Ledger::merge_from(const Ledger& other) {
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const std::vector<std::int64_t>& add = other.spans[s];
    spans[s].insert(spans[s].end(), add.begin(), add.end());
  }
  loop_ns += other.loop_ns;
  records += other.records;
  faulted_runs += other.faulted_runs;
  analytic += other.analytic;
  hangs += other.hangs;
  golden_steps += other.golden_steps;
  shadow_steps += other.shadow_steps;
  record_bytes += other.record_bytes;
  snapshot_ns.merge_from(other.snapshot_ns);
  restore_ns.merge_from(other.restore_ns);
}

double Ledger::coverage() const {
  std::int64_t covered = 0;
  for (int s = 0; s < kLoopSpans; ++s) {
    for (std::int64_t v : spans[static_cast<std::size_t>(s)]) covered += v;
  }
  return loop_ns > 0
             ? static_cast<double>(covered) / static_cast<double>(loop_ns)
             : 0.0;
}

fault::CampaignResult replay_campaign(const fault::CampaignConfig& cfg,
                                      Ledger& loop, Ledger* shadow,
                                      bool perturb) {
  fault::validate_campaign_config(cfg);
  const int shards = resolved_shards(cfg);
  const wl::WorkloadProfile profile =
      cfg.workload.mix.empty() ? fault::uniform_sweep_profile() : cfg.workload;
  const fault::CampaignConfig::StreamingConfig& st = cfg.streaming;

  std::unique_ptr<obs::ShardedFileSink> sink;
  if (!st.records_path.empty()) {
    obs::ShardedFileSink::Options so;
    so.base_path = st.records_path;
    so.format = st.records_format;
    so.shard_count = static_cast<std::size_t>(shards);
    so.buffer_bytes = st.sink_buffer_bytes;
    sink = std::make_unique<obs::ShardedFileSink>(std::move(so));
    if (!sink->ok()) {
      throw std::runtime_error("replay: cannot open record sink at " +
                               st.records_path);
    }
  }
  std::unique_ptr<fault::CheckpointJournal> journal;
  if (!st.checkpoint_path.empty()) {
    fault::CheckpointHeader header;
    header.seed = cfg.seed;
    header.injections = cfg.injections;
    header.shards = shards;
    header.activation_bias = cfg.activation_bias;
    header.warmup_activations = cfg.warmup_activations;
    header.stream_gap = cfg.stream_gap;
    header.importance = cfg.sampling.importance;
    header.checkpoint_every = st.checkpoint_every;
    header.records_format = static_cast<std::uint8_t>(st.records_format);
    journal = fault::CheckpointJournal::create(st.checkpoint_path, header);
    if (journal == nullptr || !journal->ok()) {
      throw std::runtime_error("replay: cannot open checkpoint journal at " +
                               st.checkpoint_path);
    }
  }

  fault::CampaignResult out;
  for (int s = 0; s < shards; ++s) {
    replay_shard(cfg, profile, s, shards, sink.get(), journal.get(), out, loop,
                 shadow, perturb);
  }
  return out;
}

int snapshot_sample_every() {
  constexpr int kCalls = 64;
  hv::Machine m;
  obs::Log2Histogram h;
  obs::MachineTelemetry hooks;
  hooks.snapshot_ns = &h;
  m.set_telemetry(&hooks);
  hv::Machine::Snapshot snap;
  for (int i = 0; i < kCalls; ++i) m.snapshot_into(snap);
  m.set_telemetry(nullptr);
  return h.count() == 0 ? 0 : static_cast<int>(kCalls / h.count());
}

}  // namespace perfbench
