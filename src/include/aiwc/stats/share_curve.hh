/**
 * @file
 * Concentration ("Pareto principle") measures. Sec. IV reports that the
 * top 5% of users submit 44% of jobs and the top 20% submit 83.2% — a
 * Lorenz-style share curve over per-user activity.
 */

#pragma once

#include <span>

namespace aiwc::stats
{

/**
 * Share of total mass contributed by the top `top_fraction` of
 * contributors (e.g. topShare(jobs_per_user, 0.05) == 0.44 reproduces
 * the paper's "top 5% of users submit 44% of jobs").
 */
double topShare(std::span<const double> contributions, double top_fraction);

/**
 * topShare() over contributions already sorted ascending (AIWC_DCHECK),
 * so one sort can serve several fractions and a median.
 */
double topShareSorted(std::span<const double> ascending,
                      double top_fraction);

} // namespace aiwc::stats

