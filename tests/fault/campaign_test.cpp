#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <mutex>

#include "analysis/artifacts.hpp"
#include "fault/record_io.hpp"
#include "fault/stats.hpp"
#include "sim/cpu.hpp"
#include "fault/training.hpp"
#include "hv/microvisor.hpp"

namespace xentry::fault {
namespace {

/// Field-by-field equality: the determinism contract is bit-identical
/// records, not just aggregate counts.
bool records_identical(const InjectionRecord& a, const InjectionRecord& b) {
  return a.reason.code() == b.reason.code() &&
         a.activation_seed == b.activation_seed && a.vcpu == b.vcpu &&
         a.injection.at_step == b.injection.at_step &&
         a.injection.reg == b.injection.reg &&
         a.injection.bit == b.injection.bit && a.injected == b.injected &&
         a.activated == b.activated && a.consequence == b.consequence &&
         a.detected == b.detected && a.technique == b.technique &&
         a.latency == b.latency && a.trap == b.trap &&
         a.assert_id == b.assert_id && a.trace_diverged == b.trace_diverged &&
         a.undetected == b.undetected &&
         a.features.as_array() == b.features.as_array();
}

TEST(CampaignTest, RunsRequestedInjectionsAcrossShards) {
  CampaignConfig cfg;
  cfg.injections = 200;
  cfg.seed = 7;
  cfg.shards = 4;
  cfg.xentry.transition_detection = false;  // no model installed
  auto res = run_campaign(cfg);
  EXPECT_EQ(res.records.size(), 200u);
}

TEST(CampaignTest, DeterministicForFixedSeedAndShards) {
  CampaignConfig cfg;
  cfg.injections = 120;
  cfg.seed = 11;
  cfg.shards = 3;
  cfg.xentry.transition_detection = false;  // no model installed
  auto a = run_campaign(cfg);
  auto b = run_campaign(cfg);
  ASSERT_EQ(a.records.size(), b.records.size());
  std::size_t manifested_a = 0, manifested_b = 0, detected_a = 0,
              detected_b = 0;
  for (const auto& r : a.records) {
    manifested_a += is_manifested(r.consequence);
    detected_a += r.detected;
  }
  for (const auto& r : b.records) {
    manifested_b += is_manifested(r.consequence);
    detected_b += r.detected;
  }
  EXPECT_EQ(manifested_a, manifested_b);
  EXPECT_EQ(detected_a, detected_b);
}

TEST(CampaignTest, BitIdenticalRecordsAndDatasetForFixedSeedAndShards) {
  // Regression guard for the snapshot/golden-run-reuse optimizations: a
  // fixed (seed, shards) pair must produce bit-identical record sequences
  // and dataset labels, run after run.
  CampaignConfig cfg;
  cfg.injections = 300;
  cfg.seed = 29;
  cfg.shards = 3;
  cfg.collect_dataset = true;
  const auto a = run_campaign(cfg);
  const auto b = run_campaign(cfg);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(records_identical(a.records[i], b.records[i]))
        << "record " << i << " differs";
  }
  ASSERT_EQ(a.dataset.size(), b.dataset.size());
  for (std::size_t i = 0; i < a.dataset.size(); ++i) {
    ASSERT_EQ(a.dataset.label(i), b.dataset.label(i)) << "label " << i;
    const auto ra = a.dataset.row(i);
    const auto rb = b.dataset.row(i);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "row " << i;
  }
}

TEST(CampaignTest, DatasetCollectedWhenRequested) {
  CampaignConfig cfg;
  cfg.injections = 150;
  cfg.seed = 3;
  cfg.shards = 2;
  cfg.collect_dataset = true;
  auto res = run_campaign(cfg);
  // Every injection contributes at least the golden sample.
  EXPECT_GE(res.dataset.size(), 150u);
  EXPECT_GT(res.dataset.count(ml::Label::Correct), 0u);
}

TEST(CampaignTest, ManifestationRateMatchesPaperBand) {
  // Paper Section V-D: ~17,700 of 30,000 injections manifested (59%).
  CampaignConfig cfg;
  cfg.injections = 4000;
  cfg.seed = 42;
  cfg.xentry.transition_detection = false;  // no model installed
  auto res = run_campaign(cfg);
  std::size_t manifested = 0;
  for (const auto& r : res.records) {
    manifested += is_manifested(r.consequence);
  }
  const double rate =
      static_cast<double>(manifested) / static_cast<double>(res.records.size());
  EXPECT_GT(rate, 0.40);
  EXPECT_LT(rate, 0.70);
}

TEST(CampaignTest, RecordsBitIdenticalAcrossTelemetryModes) {
  // The observability contract: telemetry must observe the campaign, not
  // perturb it.  Fully-on and fully-off runs of the same (seed, shards)
  // must agree field-by-field on every record.
  CampaignConfig base;
  base.injections = 250;
  base.seed = 13;
  base.shards = 2;
  base.xentry.transition_detection = false;  // no model installed
  CampaignConfig on = base;
  on.obs = obs::Options::all();
  const auto a = run_campaign(base);
  const auto b = run_campaign(on);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(records_identical(a.records[i], b.records[i]))
        << "record " << i << " differs between telemetry modes";
  }
  // The off run collects nothing; the on run collects everything.
  EXPECT_TRUE(a.metrics.empty());
  EXPECT_TRUE(a.trace.events().empty());
  EXPECT_FALSE(b.metrics.empty());
  EXPECT_FALSE(b.trace.events().empty());
}

TEST(CampaignTest, ValidateRejectsBadConfigs) {
  const auto valid = [] {
    CampaignConfig c;
    c.xentry.transition_detection = false;
    return c;
  };
  EXPECT_NO_THROW(validate_campaign_config(valid()));

  CampaignConfig c = valid();
  c.injections = -1;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  EXPECT_THROW(run_campaign(c), std::invalid_argument);  // checked up front

  c = valid();
  c.activation_bias = 1.5;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  c.activation_bias = -0.1;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  c.activation_bias = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.warmup_activations = -1;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.stream_gap = -3;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.shards = -2;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.shards = 0;  // a stream count, never "ask the host"
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.obs.flight_recorder = true;
  c.obs.flight_recorder_depth = 0;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.heartbeat.interval_sec = 1.0;  // interval without a callback
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.heartbeat.interval_sec = -1.0;
  c.heartbeat.callback = [](const HeartbeatSample&) {};
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  // Transition detection with no model AND no dataset collection would
  // silently detect nothing; training configs (collect_dataset) are the
  // legitimate exception.
  c = valid();
  c.xentry.transition_detection = true;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  c.collect_dataset = true;
  EXPECT_NO_THROW(validate_campaign_config(c));
}

std::shared_ptr<const analysis::AnalysisArtifacts> analyze_machine(
    const hv::MicrovisorOptions& opt) {
  const hv::Microvisor mv = hv::build_microvisor(opt);
  return std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(mv.program, hv::analyze_options(mv)));
}

TEST(CampaignTest, ControlFlowDetectionRequiresArtifacts) {
  CampaignConfig c;
  c.xentry.transition_detection = false;
  c.xentry.control_flow_detection = true;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  c.analysis = analyze_machine(c.machine);
  EXPECT_NO_THROW(validate_campaign_config(c));
}

TEST(CampaignTest, StaleAnalysisArtifactsRejected) {
  CampaignConfig c;
  c.injections = 1;
  c.xentry.transition_detection = false;
  hv::MicrovisorOptions other = c.machine;
  other.assertions = !other.assertions;  // different program text
  c.analysis = analyze_machine(other);
  EXPECT_THROW(run_campaign(c), std::invalid_argument);
  c.analysis = analyze_machine(c.machine);
  EXPECT_NO_THROW(run_campaign(c));
}

TEST(CampaignTest, RecordsBitIdenticalAcrossExecutionEngines) {
  // The tentpole determinism contract: the execution engine is a pure
  // throughput knob.  Fast and reference runs of the same (seed, shards)
  // must agree field-by-field on every record.
  CampaignConfig fast;
  fast.injections = 120;
  fast.seed = 23;
  fast.shards = 2;
  fast.xentry.transition_detection = false;  // no model installed
  CampaignConfig ref = fast;
  ref.xentry.engine = sim::EngineKind::Reference;
  const auto a = run_campaign(fast);
  const auto b = run_campaign(ref);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(records_identical(a.records[i], b.records[i]))
        << "record " << i << " differs fast vs reference";
  }
}

/// `micro_campaign 30000 1 SEED` on both engines, with the flight recorder
/// on: the pinned digest, and how many faulted runs end in a hang.
struct HangCampaign {
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t hangs;
};

class ProvenHangTest : public ::testing::TestWithParam<HangCampaign> {};

TEST_P(ProvenHangTest, EveryHangIsProvenAndMatchesTheReferenceEngine) {
  const HangCampaign& c = GetParam();
  CampaignConfig fast;
  fast.injections = 30000;
  fast.shards = 1;
  fast.seed = c.seed;
  fast.collect_dataset = true;
  fast.xentry.transition_detection = true;
  fast.obs.metrics = true;
  fast.obs.flight_recorder = true;
  CampaignConfig ref = fast;
  ref.xentry.engine = sim::EngineKind::Reference;
  const auto a = run_campaign(fast);
  const auto b = run_campaign(ref);

  ASSERT_EQ(a.records.size(), 30000u);
  ASSERT_EQ(b.records.size(), a.records.size());
  EXPECT_EQ(records_digest(a.records), c.digest);
  std::uint64_t hangs = 0;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const InjectionRecord& x = a.records[i];
    const InjectionRecord& y = b.records[i];
    ASSERT_TRUE(records_identical(x, y)) << "record " << i;
    ASSERT_EQ(x.weight, y.weight) << "record " << i;
    ASSERT_EQ(x.masked_weight, y.masked_weight) << "record " << i;
    ASSERT_TRUE(std::ranges::equal(x.blackbox(), y.blackbox()))
        << "record " << i;
    hangs += x.consequence == Consequence::HypervisorHang;
  }
  EXPECT_EQ(hangs, c.hangs);
  EXPECT_EQ(a.metrics.find_counter("campaign.hangs_proven")->value(), hangs);
  EXPECT_EQ(b.metrics.find_counter("campaign.hangs_proven")->value(), 0u);
  // A hang's handler length is the whole watchdog budget, not the zero its
  // RunResult::steps reports.
  const std::uint64_t budget = hv::RunOptions{}.max_steps;
  for (const auto* res : {&a, &b}) {
    const obs::Log2Histogram* len =
        res->metrics.find_histogram("xentry.handler_length");
    ASSERT_NE(len, nullptr);
    EXPECT_EQ(len->max(), budget);
    EXPECT_GE(len->bucket(std::bit_width(budget)), hangs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProvenHangTest,
    ::testing::Values(HangCampaign{7, 0x11d4accb01c80abcull, 54},
                      HangCampaign{11, 0x30ebc197b4b13868ull, 57},
                      HangCampaign{43, 0x1985b46acf37eb06ull, 53}),
    [](const ::testing::TestParamInfo<HangCampaign>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

TEST(CampaignTest, LongestFaultedRunThatExitsIsNotProven) {
  // Seed 11's longest faulted run takes 98,369 steps (24 proof attempts)
  // and still reaches VM entry.
  CampaignConfig cfg;
  cfg.injections = 30000;
  cfg.shards = 1;
  cfg.seed = 11;
  cfg.collect_dataset = true;
  cfg.xentry.transition_detection = true;
  const auto res = run_campaign(cfg);
  const auto longest = std::max_element(
      res.records.begin(), res.records.end(),
      [](const InjectionRecord& x, const InjectionRecord& y) {
        const bool hx = x.consequence == Consequence::HypervisorHang;
        const bool hy = y.consequence == Consequence::HypervisorHang;
        return hx != hy ? hx : x.features.rt < y.features.rt;
      });
  ASSERT_NE(longest, res.records.end());
  EXPECT_EQ(longest->features.rt, 98369);
  EXPECT_EQ(longest->trap, sim::TrapKind::None);  // reached VM entry
}

TEST(CampaignTest, RecordsBitIdenticalWithControlFlowDisabledVsAbsent) {
  // The digest contract for the new technique: installing artifacts with
  // the detection flag off must not perturb a single record.
  CampaignConfig base;
  base.injections = 250;
  base.seed = 13;
  base.shards = 2;
  base.xentry.transition_detection = false;  // no model installed
  CampaignConfig with_artifacts = base;
  with_artifacts.analysis = analyze_machine(base.machine);
  const auto a = run_campaign(base);
  const auto b = run_campaign(with_artifacts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(records_identical(a.records[i], b.records[i]))
        << "record " << i << " differs with artifacts installed";
  }
}

TEST(CampaignTest, ControlFlowDetectionFiresAsDistinctClass) {
  CampaignConfig cfg;
  cfg.injections = 3000;
  cfg.seed = 17;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;  // isolate the CFI technique
  cfg.xentry.control_flow_detection = true;
  cfg.analysis = analyze_machine(cfg.machine);
  const auto res = run_campaign(cfg);
  const CoverageBreakdown cov = coverage_breakdown(res.records);
  EXPECT_GT(cov.control_flow, 0u)
      << "a 3000-injection campaign should catch some wild edges";
  std::size_t cfi_records = 0;
  for (const auto& r : res.records) {
    if (r.technique == xentry::Technique::ControlFlow) {
      EXPECT_TRUE(r.detected);
      ++cfi_records;
    }
  }
  EXPECT_GT(cfi_records, 0u);

  // Same campaign without CFI: the technique never appears.
  CampaignConfig off = cfg;
  off.xentry.control_flow_detection = false;
  off.analysis = nullptr;
  const auto plain = run_campaign(off);
  for (const auto& r : plain.records) {
    EXPECT_NE(r.technique, xentry::Technique::ControlFlow);
  }
  // CFI only adds detections on runs the other techniques passed over:
  // total coverage can only improve.
  const CoverageBreakdown cov_off = coverage_breakdown(plain.records);
  EXPECT_GE(cov.coverage(), cov_off.coverage());
}

TEST(CampaignTest, ControlFlowMetricsExposed) {
  CampaignConfig cfg;
  cfg.injections = 400;
  cfg.seed = 23;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;
  cfg.xentry.control_flow_detection = true;
  cfg.analysis = analyze_machine(cfg.machine);
  cfg.obs.metrics = true;
  const auto res = run_campaign(cfg);
  ASSERT_NE(res.metrics.find_counter("xentry.cfi.checks"), nullptr);
  EXPECT_GT(res.metrics.find_counter("xentry.cfi.checks")->value(), 0u);
  std::uint64_t cfi_detections = 0;
  for (const auto& r : res.records) {
    cfi_detections += r.technique == xentry::Technique::ControlFlow;
  }
  const obs::Counter* edge = res.metrics.find_counter("xentry.cfi.edge_misses");
  const obs::Counter* derived =
      res.metrics.find_counter("xentry.cfi.derived_fires");
  ASSERT_NE(edge, nullptr);
  ASSERT_NE(derived, nullptr);
  // Metrics count observations; records count activated faults.  A derived
  // range check inspects register *values* at the gate, so a flipped but
  // never-read register (not "activated" per the bookkeeping) can trip it —
  // that observation bumps the metric while the record stays Masked.
  EXPECT_GE(edge->value() + derived->value(), cfi_detections);
  EXPECT_GT(cfi_detections, 0u);
}

TEST(CampaignTest, TimingDetectionRequiresArtifactsWithEnvelopes) {
  CampaignConfig c;
  c.xentry.transition_detection = false;
  c.xentry.timing_detection = true;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  // Artifacts without timing envelopes are equally useless: the detector
  // could never fire, so the config must be rejected up front.
  auto no_timing =
      std::make_shared<analysis::AnalysisArtifacts>(*analyze_machine(c.machine));
  no_timing->timing.by_entry.clear();
  c.analysis = no_timing;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  c.analysis = analyze_machine(c.machine);
  EXPECT_NO_THROW(validate_campaign_config(c));
}

TEST(CampaignTest, RecordsBitIdenticalWithTimingDisabledVsAbsent) {
  // The digest contract: installing artifacts that carry timing
  // envelopes with timing detection off must not perturb a single
  // record — the disabled path must not even change counter arming.
  CampaignConfig base;
  base.injections = 250;
  base.seed = 29;
  base.shards = 2;
  base.xentry.transition_detection = false;  // no model installed
  CampaignConfig with_artifacts = base;
  with_artifacts.analysis = analyze_machine(base.machine);
  with_artifacts.xentry.timing_detection = false;  // explicit
  const auto a = run_campaign(base);
  const auto b = run_campaign(with_artifacts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(records_identical(a.records[i], b.records[i]))
        << "record " << i << " differs with envelopes installed";
  }
}

TEST(CampaignTest, TimingOnVsOffDiffersOnlyInDetectionFields) {
  // With transition detection on (counters armed either way), enabling
  // timing detection must not change which injections run or what they
  // do — only the detection verdict may move.
  CampaignConfig off;
  off.injections = 2000;
  off.seed = 31;
  off.shards = 2;
  off.collect_dataset = true;  // the training configuration: counters armed
  off.analysis = analyze_machine(off.machine);
  CampaignConfig on = off;
  on.xentry.timing_detection = true;
  const auto a = run_campaign(off);
  const auto b = run_campaign(on);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const InjectionRecord& ra = a.records[i];
    const InjectionRecord& rb = b.records[i];
    ASSERT_EQ(ra.reason.code(), rb.reason.code()) << "record " << i;
    ASSERT_EQ(ra.activation_seed, rb.activation_seed) << "record " << i;
    ASSERT_EQ(ra.injection.at_step, rb.injection.at_step) << "record " << i;
    ASSERT_EQ(ra.injection.reg, rb.injection.reg) << "record " << i;
    ASSERT_EQ(ra.injection.bit, rb.injection.bit) << "record " << i;
    ASSERT_EQ(ra.injected, rb.injected) << "record " << i;
    ASSERT_EQ(ra.activated, rb.activated) << "record " << i;
    ASSERT_EQ(ra.consequence, rb.consequence) << "record " << i;
    ASSERT_EQ(ra.trap, rb.trap) << "record " << i;
    ASSERT_TRUE(ra.features.as_array() == rb.features.as_array())
        << "record " << i;
    if (ra.detected) {
      // Timing only inspects runs the other techniques passed over, so
      // an off-side detection must survive unchanged.
      ASSERT_TRUE(rb.detected) << "record " << i;
      ASSERT_EQ(ra.technique, rb.technique) << "record " << i;
    } else if (rb.detected) {
      ASSERT_EQ(rb.technique, xentry::Technique::Timing) << "record " << i;
    }
  }
}

TEST(CampaignTest, TimingDetectionFiresAsDistinctClass) {
  CampaignConfig cfg;
  cfg.injections = 6000;
  cfg.seed = 202;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;  // isolate the timing technique
  cfg.xentry.timing_detection = true;
  cfg.analysis = analyze_machine(cfg.machine);
  const auto res = run_campaign(cfg);
  const CoverageBreakdown cov = coverage_breakdown(res.records);
  EXPECT_GT(cov.timing, 0u)
      << "a 6000-injection campaign should trip some counter envelopes";
  std::size_t timing_records = 0;
  for (const auto& r : res.records) {
    if (r.technique == xentry::Technique::Timing) {
      EXPECT_TRUE(r.detected);
      ++timing_records;
    }
  }
  EXPECT_GT(timing_records, 0u);

  // Same campaign without timing detection: the technique never appears.
  CampaignConfig off = cfg;
  off.xentry.timing_detection = false;
  const auto plain = run_campaign(off);
  for (const auto& r : plain.records) {
    EXPECT_NE(r.technique, xentry::Technique::Timing);
  }
  const CoverageBreakdown cov_off = coverage_breakdown(plain.records);
  EXPECT_GE(cov.coverage(), cov_off.coverage());
}

TEST(CampaignTest, TimingMetricsExposed) {
  CampaignConfig cfg;
  cfg.injections = 400;
  cfg.seed = 23;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;
  cfg.xentry.timing_detection = true;
  cfg.analysis = analyze_machine(cfg.machine);
  cfg.obs.metrics = true;
  const auto res = run_campaign(cfg);
  const obs::Counter* checks = res.metrics.find_counter("xentry.timing.checks");
  ASSERT_NE(checks, nullptr);
  EXPECT_GT(checks->value(), 0u);
  const obs::Counter* cyc =
      res.metrics.find_counter("xentry.timing.cycle_misses");
  const obs::Counter* ctr =
      res.metrics.find_counter("xentry.timing.counter_misses");
  ASSERT_NE(cyc, nullptr);
  ASSERT_NE(ctr, nullptr);
  std::uint64_t timing_detections = 0;
  for (const auto& r : res.records) {
    timing_detections += r.technique == xentry::Technique::Timing;
  }
  // Every timing detection implies at least one envelope miss; misses on
  // non-activated observations may exceed the record count.
  EXPECT_GE(cyc->value() + ctr->value(), timing_detections);
}

TEST(CampaignTest, HeartbeatFiresAndFinalSampleIsExact) {
  // At 8 shards a host with fewer cores queues shards behind the worker
  // threads; the final sample stays exact either way.
  for (const int shards : {2, 8}) {
    SCOPED_TRACE(shards);
    CampaignConfig cfg;
    cfg.injections = 400;
    cfg.seed = 7;
    cfg.shards = shards;
    cfg.xentry.transition_detection = false;  // no model installed
    std::mutex mu;
    std::vector<HeartbeatSample> samples;
    cfg.heartbeat.interval_sec = 0.002;
    cfg.heartbeat.callback = [&](const HeartbeatSample& s) {
      std::lock_guard<std::mutex> lock(mu);
      samples.push_back(s);
    };
    const auto res = run_campaign(cfg);

    // run_campaign joins the monitor before returning; no lock needed now.
    ASSERT_FALSE(samples.empty());
    for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
      EXPECT_FALSE(samples[i].last) << "sample " << i;
      EXPECT_LE(samples[i].completed, samples[i].total);
    }
    const HeartbeatSample& fin = samples.back();
    EXPECT_TRUE(fin.last);
    EXPECT_EQ(fin.total, 400u);
    EXPECT_EQ(fin.completed, res.records.size());
    EXPECT_GT(fin.elapsed_sec, 0.0);
    std::uint64_t detected = 0;
    std::array<std::uint64_t, kNumTechniques> by_technique{};
    for (const auto& r : res.records) {
      detected += r.detected;
      if (r.detected) ++by_technique[static_cast<int>(r.technique)];
    }
    EXPECT_EQ(fin.detected_total, detected);
    EXPECT_EQ(fin.detected_by_technique, by_technique);
  }
}

TEST(CampaignTest, FlightRecorderPopulatesBlackboxOnSdcAndCrash) {
  CampaignConfig cfg;
  cfg.injections = 600;
  cfg.seed = 9;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;  // no model installed
  cfg.obs.flight_recorder = true;
  cfg.obs.flight_recorder_depth = 8;
  const auto res = run_campaign(cfg);
  std::size_t worthy = 0;
  for (const auto& r : res.records) {
    if (is_blackbox_worthy(r.consequence)) {
      ++worthy;
      const auto frames = r.blackbox();
      EXPECT_FALSE(frames.empty());
      EXPECT_LE(frames.size(), 8u);
      for (std::size_t i = 1; i < frames.size(); ++i) {
        EXPECT_EQ(frames[i].seq, frames[i - 1].seq + 1)
            << "frames must be consecutive, oldest first";
      }
    } else {
      EXPECT_EQ(r.postmortem.get(), nullptr);
    }
  }
  ASSERT_GT(worthy, 0u) << "campaign produced no SDC/crash outcomes to dump";

  // With the recorder off, no record carries a postmortem: not even an
  // empty payload is allocated.
  cfg.obs = {};
  const auto off = run_campaign(cfg);
  for (const auto& r : off.records) {
    EXPECT_TRUE(r.blackbox().empty());
    EXPECT_EQ(r.postmortem.get(), nullptr);
  }
}

TEST(CampaignTest, MetricsMatchRecordStream) {
  CampaignConfig cfg;
  cfg.injections = 500;
  cfg.seed = 21;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;  // no model installed
  cfg.obs.metrics = true;
  const auto res = run_campaign(cfg);

  std::uint64_t activated = 0, manifested = 0, detected = 0;
  for (const auto& r : res.records) {
    activated += r.activated;
    manifested += is_manifested(r.consequence);
    detected += r.detected;
  }
  ASSERT_NE(res.metrics.find_counter("campaign.injections"), nullptr);
  EXPECT_EQ(res.metrics.find_counter("campaign.injections")->value(), 500u);
  EXPECT_EQ(res.metrics.find_counter("campaign.activated")->value(), activated);
  EXPECT_EQ(res.metrics.find_counter("campaign.manifested")->value(),
            manifested);
  EXPECT_EQ(res.metrics.find_counter("campaign.detected")->value(), detected);
  // Every unactivated flip of this uniform campaign is resolved from the
  // golden trace; every other one executes under Xentry, whose counters
  // cover executed runs only.
  ASSERT_NE(res.metrics.find_counter("campaign.unactivated_resolved"),
            nullptr);
  const std::uint64_t resolved =
      res.metrics.find_counter("campaign.unactivated_resolved")->value();
  EXPECT_EQ(resolved, res.records.size() - activated);
  EXPECT_GT(resolved, 0u);
  ASSERT_NE(res.metrics.find_counter("xentry.observations"), nullptr);
  EXPECT_EQ(resolved +
                res.metrics.find_counter("xentry.observations")->value(),
            res.metrics.find_counter("campaign.injections")->value());
  ASSERT_NE(res.metrics.find_gauge("campaign.shards"), nullptr);
  EXPECT_EQ(res.metrics.find_gauge("campaign.shards")->value(), 2);
  EXPECT_GT(res.metrics.find_gauge("campaign.elapsed_us")->value(), 0);

  // The machine-level histograms saw traffic (sampled 1-in-N, but a
  // 500-injection campaign snapshots far more often than N).
  ASSERT_NE(res.metrics.find_histogram("machine.snapshot_ns"), nullptr);
  EXPECT_GT(res.metrics.find_histogram("machine.snapshot_ns")->count(), 0u);
  ASSERT_NE(res.metrics.find_histogram("xentry.handler_length"), nullptr);
  EXPECT_GT(res.metrics.find_histogram("xentry.handler_length")->count(), 0u);

  // Every detection technique seen in the records has a live counter.
  for (const auto& r : res.records) {
    if (!r.detected) continue;
    std::string name = "xentry.detections.";
    name += technique_name(r.technique);
    const obs::Counter* c = res.metrics.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_GT(c->value(), 0u) << name;
  }
}

TEST(CampaignTest, TraceCoversCampaignPhases) {
  CampaignConfig cfg;
  cfg.injections = 120;
  cfg.seed = 3;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;  // no model installed
  cfg.obs.tracing = true;
  cfg.obs.metrics = true;
  const auto res = run_campaign(cfg);
  bool saw_warmup = false, saw_probe = false, saw_faulted = false;
  for (const auto& ev : res.trace.events()) {
    EXPECT_GE(ev.tid, 0);
    EXPECT_LT(ev.tid, 2);
    if (ev.name == "phase:warmup") saw_warmup = true;
    if (ev.name == "phase:golden_probe") saw_probe = true;
    if (ev.name == "phase:faulted_run") saw_faulted = true;
  }
  EXPECT_TRUE(saw_warmup);
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_faulted);
  EXPECT_EQ(res.trace.dropped(), 0u);
  // The recorder's drop count is mirrored into the registry so snapshot
  // and heartbeat consumers see it without parsing the trace footer.
  ASSERT_NE(res.metrics.find_gauge("obs.trace.dropped"), nullptr);
  EXPECT_EQ(res.metrics.find_gauge("obs.trace.dropped")->value(),
            static_cast<std::int64_t>(res.trace.dropped()));
}

TEST(CampaignTest, UniformSweepCoversAllReasons) {
  auto profile = uniform_sweep_profile();
  EXPECT_EQ(profile.mix.size(), hv::all_exit_reasons().size());
}

TEST(StatsTest, CoverageBreakdownAccounting) {
  std::vector<InjectionRecord> recs(4);
  recs[0].consequence = Consequence::HypervisorCrash;
  recs[0].detected = true;
  recs[0].technique = Technique::HardwareException;
  recs[1].consequence = Consequence::AppSdc;
  recs[1].detected = true;
  recs[1].technique = Technique::VmTransition;
  recs[2].consequence = Consequence::Masked;  // not manifested
  recs[3].consequence = Consequence::AllVmFailure;  // undetected
  auto cov = coverage_breakdown(recs);
  EXPECT_EQ(cov.manifested, 3u);
  EXPECT_EQ(cov.hw_exception, 1u);
  EXPECT_EQ(cov.vm_transition, 1u);
  EXPECT_EQ(cov.undetected, 1u);
  EXPECT_NEAR(cov.coverage(), 2.0 / 3.0, 1e-12);
}

TEST(StatsTest, LatencyCdfAndPercentile) {
  std::vector<std::uint64_t> lat = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  auto cdf = latency_cdf(lat, {0, 50, 100, 200});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
  EXPECT_EQ(latency_percentile(lat, 95), 100u);
  EXPECT_EQ(latency_percentile(lat, 0), 10u);
  EXPECT_EQ(latency_percentile({}, 95), 0u);
}

TEST(StatsTest, UndetectedBreakdownSkipsDetectedAndMasked) {
  std::vector<InjectionRecord> recs(3);
  recs[0].consequence = Consequence::AppSdc;
  recs[0].undetected = UndetectedClass::TimeValues;
  recs[1].consequence = Consequence::AppSdc;
  recs[1].detected = true;
  recs[2].consequence = Consequence::Masked;
  auto u = undetected_breakdown(recs);
  EXPECT_EQ(u.total, 1u);
  EXPECT_EQ(u.time_values, 1u);
  EXPECT_DOUBLE_EQ(u.share(u.time_values), 1.0);
}

TEST(TrainingTest, OversampleReachesTargetFraction) {
  ml::Dataset ds({"x"});
  std::array<std::int64_t, 1> v{1};
  for (int i = 0; i < 95; ++i) ds.add(v, ml::Label::Correct);
  for (int i = 0; i < 5; ++i) ds.add(v, ml::Label::Incorrect);
  ml::Dataset bal = oversample_incorrect(ds, 0.2);
  const double frac = static_cast<double>(bal.count(ml::Label::Incorrect)) /
                      static_cast<double>(bal.size());
  EXPECT_GT(frac, 0.12);  // integer-copy granularity keeps it near target
  EXPECT_LE(frac, 0.25);
}

TEST(TrainingTest, OversampleNoOpCases) {
  ml::Dataset ds({"x"});
  std::array<std::int64_t, 1> v{1};
  ds.add(v, ml::Label::Incorrect);
  ds.add(v, ml::Label::Incorrect);
  EXPECT_EQ(oversample_incorrect(ds, 0.5).size(), 2u);  // all incorrect
  EXPECT_EQ(oversample_incorrect(ds, 0.0).size(), 2u);  // disabled
}

TEST(TrainingTest, EndToEndTrainingProducesUsableModel) {
  CampaignConfig cfg;
  cfg.injections = 2500;
  cfg.seed = 5;
  cfg.collect_dataset = true;
  auto res = run_campaign(cfg);
  auto det = train_detector(res.dataset);
  EXPECT_TRUE(det.tree.trained());
  EXPECT_FALSE(det.rules.empty());
  EXPECT_GT(det.test_eval.accuracy(), 0.90);
  EXPECT_LT(det.test_eval.false_positive_rate(), 0.05);
}

TEST(TrainingTest, EmptyDatasetThrows) {
  ml::Dataset empty({"a"});
  EXPECT_THROW(train_detector(empty), std::invalid_argument);
}

}  // namespace
}  // namespace xentry::fault
