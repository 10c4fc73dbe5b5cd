/**
 * @file
 * The paper's novel job classification (Sec. VI): every job lands in
 * one of four algorithm-development life-cycle stages, inferred from
 * what the scheduler observed — exactly the signals the paper uses:
 *
 *   mature       — completed with exit code 0;
 *   exploratory  — cancelled by the user before completion (the
 *                  hyper-parameter probes deemed sub-optimal);
 *   development  — runtime failure (nonzero exit) while debugging;
 *   IDE          — ran until the wall-time limit (interactive
 *                  sessions that time out at 12 h / 24 h).
 *
 * The classifier never sees the generator's ground-truth label; the
 * test suite checks the inferred labels against it.
 */

#pragma once

#include "aiwc/core/dataset.hh"

namespace aiwc::core
{

/** Stateless classifier over observed terminal behaviour. */
class LifecycleClassifier
{
  public:
    /** Infer the lifecycle class of one job. */
    Lifecycle classify(const JobRecord &job) const;

    /**
     * Agreement with the generator ground truth, for validation only
     * (a production dataset has no ground truth).
     */
    double accuracyAgainstTruth(const Dataset &dataset) const;
};

} // namespace aiwc::core

