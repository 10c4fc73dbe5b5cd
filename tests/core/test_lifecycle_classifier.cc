#include <gtest/gtest.h>

#include "record_builder.hh"

#include "aiwc/core/lifecycle_classifier.hh"

namespace aiwc::core
{
namespace
{

using testing::gpuRecord;

TEST(LifecycleClassifier, MapsTerminalStates)
{
    const LifecycleClassifier clf;
    EXPECT_EQ(clf.classify(gpuRecord(1, 0, 60.0, 1, 0.2, 0.5,
                                     TerminalState::Completed)),
              Lifecycle::Mature);
    EXPECT_EQ(clf.classify(gpuRecord(2, 0, 60.0, 1, 0.2, 0.5,
                                     TerminalState::Cancelled)),
              Lifecycle::Exploratory);
    EXPECT_EQ(clf.classify(gpuRecord(3, 0, 60.0, 1, 0.2, 0.5,
                                     TerminalState::Failed)),
              Lifecycle::Development);
    EXPECT_EQ(clf.classify(gpuRecord(4, 0, 60.0, 1, 0.2, 0.5,
                                     TerminalState::TimedOut)),
              Lifecycle::Ide);
    EXPECT_EQ(clf.classify(gpuRecord(5, 0, 60.0, 1, 0.2, 0.5,
                                     TerminalState::NodeFailure)),
              Lifecycle::Development);
}

TEST(LifecycleClassifier, AccuracyAgainstTruth)
{
    Dataset ds;
    JobRecord good = gpuRecord(1, 0, 60.0, 1, 0.2, 0.5,
                               TerminalState::Completed);
    good.true_class = Lifecycle::Mature;
    JobRecord bad = gpuRecord(2, 0, 60.0, 1, 0.2, 0.5,
                              TerminalState::Completed);
    bad.true_class = Lifecycle::Ide;  // mislabeled on purpose
    ds.add(good);
    ds.add(bad);
    const LifecycleClassifier clf;
    EXPECT_NEAR(clf.accuracyAgainstTruth(ds), 0.5, 1e-12);
}

TEST(LifecycleClassifier, EmptyDatasetEdgeCases)
{
    const Dataset ds;
    const LifecycleClassifier clf;
    EXPECT_DOUBLE_EQ(clf.accuracyAgainstTruth(ds), 1.0);
}

} // namespace
} // namespace aiwc::core
