// Integration tests: end-to-end distributed training with each codec.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "compress/factory.h"
#include "obs/telemetry.h"
#include "step_log.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "train/trainer.h"

namespace threelc::train {
namespace {

using compress::CodecConfig;

class TrainerIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ExperimentConfig(SmallExperiment());
    data_ = new data::SyntheticData(data::MakeTeacherDataset(config_->data));
  }
  static void TearDownTestSuite() {
    delete config_;
    delete data_;
    config_ = nullptr;
    data_ = nullptr;
  }

  static ExperimentConfig* config_;
  static data::SyntheticData* data_;
};

ExperimentConfig* TrainerIntegration::config_ = nullptr;
data::SyntheticData* TrainerIntegration::data_ = nullptr;

TEST_F(TrainerIntegration, BaselineLearnsAboveChance) {
  auto r = RunDesign(*config_, CodecConfig::Float32(), 150, *data_);
  EXPECT_GT(r.final_test_accuracy, 0.3);  // chance is 0.1
  EXPECT_LT(r.final_train_loss, 2.0);
  EXPECT_EQ(r.steps.size(), 150u);
}

TEST_F(TrainerIntegration, ThreeLCMatchesBaselineAccuracyBand) {
  auto base = RunDesign(*config_, CodecConfig::Float32(), 150, *data_);
  auto lc = RunDesign(*config_, CodecConfig::ThreeLC(1.0f), 150, *data_);
  EXPECT_GT(lc.final_test_accuracy, base.final_test_accuracy - 0.08);
}

TEST_F(TrainerIntegration, ThreeLCTrafficMatchesBitsPerValueBand) {
  auto r = RunDesign(*config_, CodecConfig::ThreeLC(1.0f), 100, *data_);
  // Paper Table 2: 0.3–1.6 bits per state change for 3LC variants; early
  // training is denser, so accept up to quartic's fixed 1.6 + slack.
  EXPECT_GT(r.CodecBitsPerValue(), 0.1);
  EXPECT_LT(r.CodecBitsPerValue(), 1.7);
  EXPECT_GT(r.CodecCompressionRatio(), 20.0);
}

TEST_F(TrainerIntegration, NoZreIsExactly20xForCodecTraffic) {
  CodecConfig cfg = CodecConfig::ThreeLC(1.0f);
  cfg.zero_run = false;
  auto r = RunDesign(*config_, cfg, 30, *data_);
  // Quartic encoding alone: 1.6 bits/value = 20x, minus small headers.
  EXPECT_NEAR(r.CodecCompressionRatio(), 20.0, 1.0);
  EXPECT_NEAR(r.CodecBitsPerValue(), 1.6, 0.1);
}

TEST_F(TrainerIntegration, BaselineIs32BitsPerValue) {
  auto r = RunDesign(*config_, CodecConfig::Float32(), 20, *data_);
  EXPECT_DOUBLE_EQ(r.CodecBitsPerValue(), 32.0);
  EXPECT_DOUBLE_EQ(r.AverageBitsPerValue(), 32.0);
}

TEST_F(TrainerIntegration, TwoLocalStepsHalvesTraffic) {
  auto base = RunDesign(*config_, CodecConfig::Float32(), 40, *data_);
  auto local = RunDesign(*config_, CodecConfig::TwoLocalSteps(), 40, *data_);
  const double ratio = static_cast<double>(base.TotalBytes()) /
                       static_cast<double>(local.TotalBytes());
  EXPECT_NEAR(ratio, 2.0, 0.15);
}

TEST_F(TrainerIntegration, DeterministicAcrossRuns) {
  auto a = RunDesign(*config_, CodecConfig::ThreeLC(1.5f), 40, *data_);
  auto b = RunDesign(*config_, CodecConfig::ThreeLC(1.5f), 40, *data_);
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].loss, b.steps[i].loss) << "step " << i;
    EXPECT_EQ(a.steps[i].push_bytes, b.steps[i].push_bytes) << "step " << i;
    EXPECT_EQ(a.steps[i].pull_bytes, b.steps[i].pull_bytes) << "step " << i;
  }
}

TEST_F(TrainerIntegration, SerialAndParallelWorkersAgree) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.parallel_workers = false;
  auto serial = RunDesign(cfg, CodecConfig::ThreeLC(1.0f), 25, *data_);
  cfg.trainer.parallel_workers = true;
  auto parallel = RunDesign(cfg, CodecConfig::ThreeLC(1.0f), 25, *data_);
  EXPECT_EQ(serial.final_test_accuracy, parallel.final_test_accuracy);
  for (std::size_t i = 0; i < serial.steps.size(); ++i) {
    EXPECT_EQ(serial.steps[i].loss, parallel.steps[i].loss);
  }
}

TEST_F(TrainerIntegration, TrafficAccountingConsistency) {
  auto r = RunDesign(*config_, CodecConfig::ThreeLC(1.0f), 30, *data_);
  for (const auto& s : r.steps) {
    EXPECT_GE(s.push_bytes, s.push_bytes_codec);
    EXPECT_GE(s.pull_bytes, s.pull_bytes_codec);
    EXPECT_GE(s.push_values, s.push_values_codec);
    // Every step pushes/pulls the full model per worker.
    EXPECT_EQ(s.push_values,
              static_cast<std::size_t>(r.model_parameters) *
                  static_cast<std::size_t>(r.num_workers));
    EXPECT_EQ(s.pull_values, s.push_values);
    EXPECT_GT(s.push_bytes, 0u);
    EXPECT_GT(s.pull_bytes, 0u);
  }
}

// Pins what downstream tools parse from an in-process run: the step
// record's phases (names, order, and that they sum to step_wall_ms), the
// span names per track, and train/step_ms fed from those same records.
TEST_F(TrainerIntegration, StepRecordPhasesAndSpanNamesArePinned) {
  const std::string path = ::testing::TempDir() + "trainer_step_log.jsonl";
  obs::TelemetryOptions options;
  options.metrics_path = path;
  options.trace_path = ::testing::TempDir() + "trainer_trace.json";
  obs::Telemetry tel(options);
  TrainerConfig tc = config_->trainer;
  tc.codec = CodecConfig::ThreeLC(1.0f);
  tc.total_steps = 2;
  tc.telemetry = &tel;
  const MlpSpec spec = config_->model;
  const std::uint64_t model_seed = config_->model_seed;
  DistributedTrainer trainer(
      tc, [spec, model_seed] { return BuildMlp(spec, model_seed); },
      data_->train, data_->test);
  trainer.Run();

  const std::vector<testutil::StepPhases> steps =
      testutil::ReadStepPhases(path);
  ASSERT_EQ(steps.size(), 2u);
  const std::vector<std::string> phases = {
      "forward_backward", "encode_push", "decode_aggregate",
      "optimize",         "encode_pull", "decode_pull"};
  double wall_sum = 0.0;
  for (const testutil::StepPhases& s : steps) {
    EXPECT_EQ(s.names, phases);
    EXPECT_NEAR(s.sum_ms, s.step_wall_ms, 1e-6 * s.step_wall_ms + 1e-9);
    wall_sum += s.step_wall_ms;
  }
  const util::RunningStat step_ms =
      tel.metrics().histogram("train/step_ms")->stat();
  EXPECT_EQ(step_ms.count(), 2u);
  EXPECT_NEAR(step_ms.sum(), wall_sum, 1e-6 * wall_sum + 1e-9);

  EXPECT_EQ(testutil::SpanNames(tel.tracer(), 0, 0),
            (std::set<std::string>{"decode_aggregate", "optimize",
                                   "encode_pull", "evaluate"}));
  EXPECT_EQ(testutil::SpanNames(tel.tracer(), 1, tc.num_workers),
            (std::set<std::string>{"sample_batch", "forward_backward",
                                   "encode_push", "decode_pull"}));
}

TEST_F(TrainerIntegration, EvalsRecordedAtRequestedCadence) {
  ExperimentConfig cfg = *config_;
  cfg.trainer.eval_every = 20;
  auto r = RunDesign(cfg, CodecConfig::Float32(), 60, *data_);
  ASSERT_EQ(r.evals.size(), 3u);
  EXPECT_EQ(r.evals[0].step, 20);
  EXPECT_EQ(r.evals[1].step, 40);
  EXPECT_EQ(r.evals[2].step, 60);
  EXPECT_EQ(r.evals.back().test_accuracy, r.final_test_accuracy);
}

TEST_F(TrainerIntegration, LrFollowsCosineSchedule) {
  auto r = RunDesign(*config_, CodecConfig::Float32(), 50, *data_);
  EXPECT_NEAR(r.steps.front().lr, config_->trainer.lr_max, 1e-5);
  EXPECT_LT(r.steps.back().lr, r.steps.front().lr);
}

TEST_F(TrainerIntegration, SparsificationTrafficBetweenBounds) {
  auto r = RunDesign(*config_, CodecConfig::Sparsification(0.05f), 30, *data_);
  // 5%: ~1 bit bitmap + ~0.05*32 bits values ≈ 2.6 bits/value.
  EXPECT_GT(r.CodecBitsPerValue(), 1.0);
  EXPECT_LT(r.CodecBitsPerValue(), 5.0);
}

TEST_F(TrainerIntegration, HigherSparsityMultiplierNeverMoreTraffic) {
  auto s100 = RunDesign(*config_, CodecConfig::ThreeLC(1.0f), 40, *data_);
  auto s190 = RunDesign(*config_, CodecConfig::ThreeLC(1.9f), 40, *data_);
  EXPECT_LT(s190.CodecBytes(), s100.CodecBytes());
}

TEST_F(TrainerIntegration, AllTable1DesignsRunAndLearn) {
  for (const auto& design : compress::Table1Designs()) {
    auto r = RunDesign(*config_, design, 80, *data_);
    EXPECT_GT(r.final_test_accuracy, 0.2) << r.codec_name;
    EXPECT_TRUE(std::isfinite(r.final_train_loss)) << r.codec_name;
  }
}

}  // namespace
}  // namespace threelc::train
