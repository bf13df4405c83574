// The full Xentry lifecycle, end to end:
//
//   1. run a fault-injection training campaign (paper Section III-B),
//   2. train the RandomTree classifier and compile it to integer rules,
//   3. persist the model (the artifact you would ship into a hypervisor),
//   4. deploy it in a fresh evaluation campaign and report coverage.
//
//   $ ./train_and_deploy [training_injections] [eval_injections]
#include <cstdio>
#include <fstream>
#include <limits>

#include "bench/bench_util.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "fault/stats.hpp"
#include "fault/training.hpp"

using namespace xentry;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: train_and_deploy [training_injections] [eval_injections]\n";
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const int train_n =
      argc > 1 ? bench::parse_number_or_exit("train_and_deploy",
                                             "training_injections", argv[1],
                                             0, kIntMax, kUsage)
               : 23400;
  const int eval_n =
      argc > 2 ? bench::parse_number_or_exit("train_and_deploy",
                                             "eval_injections", argv[2], 0,
                                             kIntMax, kUsage)
               : 30000;

  // -- 1. training campaign -------------------------------------------------
  std::printf("running training campaign (%d injections)...\n", train_n);
  fault::CampaignConfig train_cfg;
  train_cfg.injections = train_n;
  train_cfg.seed = 101;
  train_cfg.collect_dataset = true;
  fault::CampaignResult train_res = fault::run_campaign(train_cfg);
  std::printf("  %zu samples collected (%zu incorrect)\n",
              train_res.dataset.size(),
              train_res.dataset.count(ml::Label::Incorrect));

  // -- 2. train -----------------------------------------------------------------
  fault::TrainedDetector det = fault::train_detector(train_res.dataset);
  std::printf("  model: accuracy=%.2f%% fp=%.2f%% fn=%.1f%% "
              "(%zu rules, worst case %d comparisons/entry)\n",
              100 * det.test_eval.accuracy(),
              100 * det.test_eval.false_positive_rate(),
              100 * det.test_eval.false_negative_rate(), det.rules.size(),
              det.rules.max_comparisons());

  // -- 3. persist ----------------------------------------------------------------
  {
    std::ofstream model_file("xentry_model.rules");
    model_file << det.rules.serialize();
    std::ofstream data_file("xentry_training.csv");
    train_res.dataset.save_csv(data_file);
  }
  std::printf("  wrote xentry_model.rules and xentry_training.csv\n");

  // -- 4. deploy & evaluate --------------------------------------------------------
  std::printf("running evaluation campaign (%d injections)...\n", eval_n);
  ml::RuleSet deployed;
  {
    std::ifstream model_file("xentry_model.rules");
    std::string text((std::istreambuf_iterator<char>(model_file)),
                     std::istreambuf_iterator<char>());
    deployed = ml::RuleSet::deserialize(text);
  }
  fault::CampaignConfig eval_cfg;
  eval_cfg.injections = eval_n;
  eval_cfg.seed = 202;
  eval_cfg.model = deployed;
  fault::CampaignResult eval_res = fault::run_campaign(eval_cfg);

  const auto cov = fault::coverage_breakdown(eval_res.records);
  std::printf("\n  manifested errors: %zu of %zu injections\n",
              cov.manifested, eval_res.records.size());
  std::printf("  detected by hardware exceptions: %5.1f%%\n",
              100 * cov.share(cov.hw_exception));
  std::printf("  detected by software assertions: %5.1f%%\n",
              100 * cov.share(cov.sw_assertion));
  std::printf("  detected at VM transition:       %5.1f%%\n",
              100 * cov.share(cov.vm_transition));
  std::printf("  undetected:                      %5.1f%%\n",
              100 * cov.share(cov.undetected));
  std::printf("  overall coverage:                %5.1f%%\n",
              100 * cov.coverage());

  const auto by_tech = fault::latency_by_technique(eval_res.records);
  for (const auto& [tech, lats] : by_tech) {
    std::printf("  %s: %zu detections, p95 latency %lu instructions\n",
                std::string(technique_name(tech)).c_str(), lats.size(),
                (unsigned long)fault::latency_percentile(lats, 95));
  }

  // Raw records for external analysis (pandas/R).
  {
    std::ofstream records_file("xentry_records.csv");
    fault::write_records_csv(records_file, eval_res.records);
  }
  std::printf("\n  wrote xentry_records.csv\n\n%s",
              fault::summarize(eval_res.records).c_str());
  return 0;
}
