#include "aiwc/telemetry/phase_model.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/check.hh"

namespace aiwc::telemetry
{

PhaseModel::PhaseModel(const JobProfile &profile) : profile_(profile)
{
    clamped_af_ = std::clamp(profile.active_fraction, 0.002, 0.998);
}

double
PhaseModel::impliedIdleMedian() const
{
    // Expected interval length of LogNormal(median m, sigma s) is
    // m * exp(s^2/2). Choosing the idle median so the *expected*
    // active:idle time ratio equals af : (1-af) requires correcting
    // for the two sigmas.
    const double af = clamped_af_;
    const double correction =
        std::exp((profile_.active_len_sigma * profile_.active_len_sigma -
                  profile_.idle_len_sigma * profile_.idle_len_sigma) / 2.0);
    return profile_.active_len_median_s * (1.0 - af) / af * correction;
}

std::vector<Phase>
PhaseModel::generate(Seconds duration, Rng &rng) const
{
    AIWC_CHECK(duration > 0.0, "phase generation needs a positive run");
    const double idle_median = impliedIdleMedian();
    const double mu_a = std::log(profile_.active_len_median_s);
    const double mu_i = std::log(std::max(idle_median, 1e-3));

    // Reserve for the expected number of phases, two per active+idle
    // cycle of mean length E[active] + E[idle], so a long job does not
    // regrow its buffer a dozen times. The lengths are heavy-tailed, so
    // a typical run falls short of the mean and needs more phases than
    // that: reserve a quarter more, or most vectors would still double
    // once. Capped: a tiny median would otherwise reserve far more than
    // the 0.1 s floor lets it use.
    constexpr double max_reserved_phases = 16384.0;
    const double sa = profile_.active_len_sigma;
    const double si = profile_.idle_len_sigma;
    const double cycle = std::exp(mu_a + 0.5 * sa * sa) +
                         std::exp(mu_i + 0.5 * si * si);
    double reserved = 1.25 * (2.0 * duration / cycle + 2.0);
    if (!(reserved < max_reserved_phases))  // also catches NaN
        reserved = max_reserved_phases;
    std::vector<Phase> out;
    out.reserve(static_cast<std::size_t>(reserved));

    bool active = rng.chance(clamped_af_);
    Seconds t = 0.0;
    while (t < duration) {
        const double mu = active ? mu_a : mu_i;
        const double sigma = active ? profile_.active_len_sigma
                                    : profile_.idle_len_sigma;
        double len = std::exp(mu + sigma * rng.gaussian());
        len = std::max(len, 0.1);  // one sampler tick at minimum
        if (t + len > duration)
            len = duration - t;
        if (len > 0.0)
            out.push_back(Phase{active, len});
        t += len;
        active = !active;
    }
    AIWC_CHECK(!out.empty(), "empty phase sequence");
    return out;
}

double
PhaseModel::activeFraction(const std::vector<Phase> &phases)
{
    double active = 0.0, total = 0.0;
    for (const auto &p : phases) {
        total += p.length;
        if (p.active)
            active += p.length;
    }
    return total > 0.0 ? active / total : 0.0;
}

} // namespace aiwc::telemetry
