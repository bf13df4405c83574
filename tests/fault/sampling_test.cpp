#include "fault/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/experiment.hpp"
#include "fault/stats.hpp"
#include "hv/microvisor.hpp"

namespace xentry::fault {
namespace {

std::shared_ptr<const analysis::AnalysisArtifacts> microvisor_artifacts(
    const hv::MicrovisorOptions& opt = {}) {
  return std::make_shared<analysis::AnalysisArtifacts>(
      analysis::analyze_program(hv::build_microvisor(opt).program));
}

bool same_injection(const hv::Injection& a, const hv::Injection& b) {
  return a.at_step == b.at_step && a.reg == b.reg && a.bit == b.bit;
}

TEST(ImportanceSamplerTest, MainRngConsumptionMatchesPlainDraws) {
  // The sampler must consume the main stream exactly like uniform mode:
  // same draw calls, same order — so the activation/probe sequence of the
  // campaign is bit-identical across sampling modes.
  const hv::Microvisor mv = hv::build_microvisor({});
  const analysis::AnalysisArtifacts art = analysis::analyze_program(mv.program);
  ASSERT_FALSE(art.vuln.empty());

  // A synthetic in-image trace is enough: the draws only need sizes.
  std::vector<sim::Addr> trace;
  for (sim::Addr a = mv.program.base(); a < mv.program.base() + 200; ++a) {
    trace.push_back(a);
  }

  ImportanceSampler sampler(art.vuln, mv.program, 1.0 / 64, 99);
  std::mt19937_64 sampled(42), plain(42);
  for (int i = 0; i < 50; ++i) {
    sampler.propose_uniform(sampled, trace.size(), trace);
    InjectionExperiment::draw_injection(plain, trace.size());
    // The comparison itself consumes one value from each stream, keeping
    // them aligned for the next round.
    ASSERT_EQ(sampled(), plain()) << "uniform branch diverged at slot " << i;
    sampler.propose_activated(sampled, trace);
    InjectionExperiment::draw_activated_injection(plain, trace, mv.program);
    ASSERT_EQ(sampled(), plain()) << "activated branch diverged at slot " << i;
  }
}

TEST(ImportanceSamplerTest, ProposalsLandOnLiveBitsOrGoAnalytic) {
  const hv::Microvisor mv = hv::build_microvisor({});
  const analysis::AnalysisArtifacts art = analysis::analyze_program(mv.program);
  std::vector<sim::Addr> trace;
  for (sim::Addr a = mv.program.base(); a < mv.program.base() + 300; ++a) {
    trace.push_back(a);
  }
  ImportanceSampler sampler(art.vuln, mv.program, 1.0 / 64, 7);
  std::mt19937_64 rng(1);
  int executed = 0, redrawn = 0;
  for (int i = 0; i < 400; ++i) {
    std::mt19937_64 probe_rng = rng;  // copy: re-derive the original draw
    const hv::Injection original =
        InjectionExperiment::draw_injection(probe_rng, trace.size());
    const ImportanceSampler::Proposal p =
        sampler.propose_uniform(rng, trace.size(), trace);
    ASSERT_GT(p.live_mass, 0.0);
    ASSERT_LE(p.live_mass, 1.0);
    if (p.analytic) continue;
    ++executed;
    redrawn += same_injection(p.injection, original) ? 0 : 1;
    // Every executed proposal sits on a bit the map cannot prove masked.
    EXPECT_TRUE(art.vuln.is_live(
        trace[p.injection.at_step],
        static_cast<std::uint8_t>(p.injection.reg),
        static_cast<std::uint8_t>(p.injection.bit)));
  }
  // The microvisor map masks ~half the space: both paths must be common.
  EXPECT_GT(executed, 300);
  EXPECT_GT(redrawn, 50);
}

TEST(CampaignSamplingTest, ValidateRejectsBadSamplingConfigs) {
  CampaignConfig cfg;
  cfg.xentry.transition_detection = false;
  cfg.sampling.importance = true;
  // No analysis artifacts installed.
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);

  // Artifacts without a vulnerability map.
  auto no_bits = std::make_shared<analysis::AnalysisArtifacts>(
      *microvisor_artifacts(cfg.machine));
  no_bits->vuln = {};
  cfg.analysis = no_bits;
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);

  cfg.analysis = microvisor_artifacts(cfg.machine);
  EXPECT_NO_THROW(validate_campaign_config(cfg));

  cfg.sampling.weight_floor = 0.0;
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);
  cfg.sampling.weight_floor = -0.5;
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);
  cfg.sampling.weight_floor = 1.5;
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);
  cfg.sampling.weight_floor = std::nan("");
  EXPECT_THROW(validate_campaign_config(cfg), std::invalid_argument);
  cfg.sampling.weight_floor = 1.0;
  EXPECT_NO_THROW(validate_campaign_config(cfg));
}

TEST(CampaignSamplingTest, WeightsAreUnitUnderUniformSampling) {
  CampaignConfig cfg;
  cfg.injections = 150;
  cfg.seed = 5;
  cfg.shards = 2;
  cfg.xentry.transition_detection = false;
  const CampaignResult res = run_campaign(cfg);
  for (const InjectionRecord& r : res.records) {
    EXPECT_EQ(r.weight, 1.0);
    EXPECT_EQ(r.masked_weight, 0.0);
  }
  const WeightedRates w = weighted_rates(res.records);
  EXPECT_DOUBLE_EQ(w.total_mass, 150.0);
  EXPECT_DOUBLE_EQ(w.effective_injections, 150.0);
  const auto hist = consequence_histogram(res.records);
  for (const auto& [c, n] : hist) {
    EXPECT_DOUBLE_EQ(w.mass[static_cast<std::size_t>(c)],
                     static_cast<double>(n));
  }
}

TEST(CampaignSamplingTest, ReweightedRatesMatchUniformWithinTolerance) {
  CampaignConfig uniform;
  uniform.injections = 1500;
  uniform.seed = 7;
  uniform.shards = 2;
  uniform.xentry.transition_detection = false;

  CampaignConfig sampled = uniform;
  sampled.sampling.importance = true;
  sampled.analysis = microvisor_artifacts(uniform.machine);

  const CampaignResult ur = run_campaign(uniform);
  const CampaignResult sr = run_campaign(sampled);
  ASSERT_EQ(ur.records.size(), sr.records.size());

  const WeightedRates uw = weighted_rates(ur.records);
  const WeightedRates sw = weighted_rates(sr.records);
  // The reweighted estimator targets the same estimand; for the same
  // seed the two runs share golden streams, so residual disagreement is
  // only the masked-stratum resampling noise.
  EXPECT_NEAR(sw.rate(Consequence::Masked), uw.rate(Consequence::Masked),
              0.04);
  EXPECT_NEAR(sw.manifested_rate(), uw.manifested_rate(), 0.04);
  EXPECT_NEAR(sw.detected_rate(), uw.detected_rate(), 0.04);
  EXPECT_NEAR(sw.rate(Consequence::AppSdc), uw.rate(Consequence::AppSdc),
              0.02);
  EXPECT_NEAR(sw.rate(Consequence::AppCrash), uw.rate(Consequence::AppCrash),
              0.02);
  // The sampled campaign is statistically larger than its record count.
  EXPECT_GT(sw.effective_injections,
            1.3 * static_cast<double>(sr.records.size()));

  // Weight invariants: every executed slot carries its exact live mass.
  for (const InjectionRecord& r : sr.records) {
    EXPECT_GT(r.weight, 0.0);
    EXPECT_LE(r.weight, 1.0);
    const bool analytic = r.masked_weight == 0.0 && r.weight == 1.0;
    if (!analytic) {
      EXPECT_NEAR(r.weight + r.masked_weight, 1.0, 1e-12);
    }
  }
}

TEST(CampaignSamplingTest, SampledCampaignIsDeterministic) {
  CampaignConfig cfg;
  cfg.injections = 300;
  cfg.seed = 13;
  cfg.shards = 3;
  cfg.xentry.transition_detection = false;
  cfg.sampling.importance = true;
  cfg.analysis = microvisor_artifacts(cfg.machine);
  const CampaignResult a = run_campaign(cfg);
  const CampaignResult b = run_campaign(cfg);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const InjectionRecord& x = a.records[i];
    const InjectionRecord& y = b.records[i];
    EXPECT_TRUE(same_injection(x.injection, y.injection)) << "record " << i;
    EXPECT_EQ(x.consequence, y.consequence) << "record " << i;
    EXPECT_EQ(x.detected, y.detected) << "record " << i;
    EXPECT_EQ(x.activated, y.activated) << "record " << i;
    EXPECT_DOUBLE_EQ(x.weight, y.weight) << "record " << i;
    EXPECT_DOUBLE_EQ(x.masked_weight, y.masked_weight) << "record " << i;
  }
}

}  // namespace
}  // namespace xentry::fault
