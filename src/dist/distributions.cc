#include "aiwc/dist/distributions.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/logging.hh"

namespace aiwc::dist
{

double
sampleGamma(Rng &rng, double shape)
{
    AIWC_ASSERT(shape > 0.0, "gamma shape must be positive");
    if (shape < 1.0) {
        // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
        const double u = std::max(rng.uniform(), 1e-300);
        return sampleGamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x = 0.0, v = 0.0;
        do {
            x = rng.gaussian();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = rng.uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (u > 0.0 &&
            std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
            return d * v;
        }
    }
}

LogNormal::LogNormal(double median, double sigma)
    : mu_(std::log(median)), sigma_(sigma)
{
    AIWC_ASSERT(median > 0.0, "log-normal median must be positive");
    AIWC_ASSERT(sigma >= 0.0, "log-normal sigma must be non-negative");
}

double
LogNormal::sample(Rng &rng) const
{
    return std::exp(mu_ + sigma_ * rng.gaussian());
}

Beta::Beta(double a, double b) : a_(a), b_(b)
{
    AIWC_ASSERT(a > 0.0 && b > 0.0, "beta parameters invalid");
}

Beta
Beta::fromMean(double mean, double kappa)
{
    AIWC_ASSERT(mean > 0.0 && mean < 1.0, "beta mean must be in (0,1)");
    AIWC_ASSERT(kappa > 0.0, "beta concentration must be positive");
    return Beta(mean * kappa, (1.0 - mean) * kappa);
}

double
Beta::sample(Rng &rng) const
{
    const double x = sampleGamma(rng, a_);
    const double y = sampleGamma(rng, b_);
    const double s = x + y;
    return s > 0.0 ? x / s : 0.5;
}

} // namespace aiwc::dist
