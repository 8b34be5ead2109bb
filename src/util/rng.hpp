/**
 * @file
 * Deterministic, splittable random number generation.
 *
 * Every stochastic component in the simulator (process variation,
 * metastability, thermal noise, ambient temperature walks) draws from
 * an Rng seeded from a single experiment seed, so complete experiments
 * are reproducible bit-for-bit. Rng::split() derives independent child
 * streams so that adding a consumer does not perturb the draws seen by
 * existing consumers.
 */

#ifndef PENTIMENTO_UTIL_RNG_HPP
#define PENTIMENTO_UTIL_RNG_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

#include "util/logging.hpp"

namespace pentimento::util {

/**
 * xoshiro256** pseudo-random generator with splitmix64 seeding.
 *
 * Chosen over std::mt19937_64 for speed (the aging loop draws billions
 * of variates in long sweeps) and for a compact, copyable state that
 * makes snapshotting experiments trivial.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            word = splitmix64(x);
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64-bit draw. */
    result_type
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi] (inclusive). lo > hi is a caller
     *  bug and fatals. NOTE: an unsigned `size() - 1` underflow from
     *  an empty container produces (0, UINT64_MAX) — which is the
     *  *legitimate* full-range request, so it cannot be trapped here.
     *  Use uniformIndex() to pick from a container. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo > hi) {
            fatal("Rng::uniformInt: empty range (lo > hi)");
        }
        const std::uint64_t span = hi - lo + 1;
        return lo + (span == 0 ? (*this)() : (*this)() % span);
    }

    /**
     * Uniform index in [0, count). Fatals on count == 0 — the guard
     * uniformInt(0, size() - 1) cannot provide, because the empty
     * container's size()-1 wraps to exactly the legitimate full-range
     * request. Draw-compatible with uniformInt(0, count - 1): call
     * sites switching over keep their sequences bit-identical.
     */
    std::uint64_t
    uniformIndex(std::uint64_t count)
    {
        if (count == 0) {
            fatal("Rng::uniformIndex: empty range");
        }
        return (*this)() % count;
    }

    /** Standard normal variate (Marsaglia polar method). */
    double
    gaussian()
    {
        if (have_cached_) {
            have_cached_ = false;
            return cached_;
        }
        double u, v, s;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double m = std::sqrt(-2.0 * std::log(s) / s);
        cached_ = v * m;
        have_cached_ = true;
        return u * m;
    }

    /** Normal variate with the given mean and standard deviation. */
    double
    gaussian(double mean, double sd)
    {
        return mean + sd * gaussian();
    }

    /**
     * Standard normal variate via a 256-layer Marsaglia-Tsang
     * ziggurat: ~1 raw draw and zero transcendental calls for ~99% of
     * variates, vs ~2.5 draws plus sqrt+log for the polar method.
     *
     * NOT draw-compatible with gaussian(): it consumes the underlying
     * stream in a different order, so it is reserved for opt-in fast
     * paths (TdcConfig::fast_sampling) that deliberately re-roll their
     * sample paths. Does not touch the polar method's cached variate.
     */
    double
    gaussianFast()
    {
        return gaussianFastFrom(zigguratTables());
    }

    /** Block of ziggurat normals with given mean and deviation. */
    void
    gaussianFastBlock(double mean, double sd, double *out, std::size_t n)
    {
        // Resolve the magic-static guard once for the whole block
        // instead of per variate — the tight trace loops draw tens of
        // samples per call.
        const ZigguratTables &z = zigguratTables();
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = mean + sd * gaussianFastFrom(z);
        }
    }

  private:
    struct ZigguratTables;

    /** Ziggurat sampling loop against an already-resolved table. */
    double
    gaussianFastFrom(const ZigguratTables &z)
    {
        while (true) {
            const std::uint64_t bits = (*this)();
            // Bit-disjoint fields of one draw: 53-bit magnitude
            // (bits 11-63), layer index (bits 0-7), sign (bit 8).
            const std::uint64_t j = bits >> 11;
            const unsigned idx = static_cast<unsigned>(bits & 255u);
            const double sign = (bits & 256u) != 0 ? -1.0 : 1.0;
            if (j < z.kn[idx]) {
                // Fully inside the layer: accept with no float test.
                return sign * (static_cast<double>(j) * z.wn[idx]);
            }
            if (idx == 0) {
                // Tail beyond r: Marsaglia's exponential wedge. The
                // 1 - uniform() keeps log()'s argument in (0, 1].
                double x, y;
                do {
                    x = -std::log(1.0 - uniform()) * z.inv_r;
                    y = -std::log(1.0 - uniform());
                } while (y + y < x * x);
                return sign * (z.r + x);
            }
            const double x = static_cast<double>(j) * z.wn[idx];
            if (z.fn[idx] +
                    uniform() * (z.fn[idx - 1] - z.fn[idx]) <
                std::exp(-0.5 * x * x)) {
                return sign * x;
            }
        }
    }

  public:
    /** Lognormal variate parameterised by the underlying normal. */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(gaussian(mu, sigma));
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Derive an independent child stream.
     *
     * The child is seeded from a fresh draw mixed with a caller tag so
     * that identically-ordered splits with different tags diverge.
     */
    Rng
    split(std::uint64_t tag = 0)
    {
        std::uint64_t s = (*this)() ^ (tag * 0xbf58476d1ce4e5b9ULL);
        return Rng(splitmix64(s));
    }

    /** Derive a child stream from a string tag (e.g. component name). */
    Rng
    split(std::string_view tag)
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const char c : tag) {
            h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
        }
        return split(h);
    }

    /**
     * Complete serializable stream cursor. The polar-method cache is
     * part of the cursor: dropping it would desynchronise every
     * odd-count gaussian consumer after a snapshot restore.
     */
    struct State
    {
        std::uint64_t words[4];
        double cached;
        bool have_cached;
    };

    /** Capture the stream cursor for checkpointing. */
    State
    state() const
    {
        return State{{state_[0], state_[1], state_[2], state_[3]},
                     cached_, have_cached_};
    }

    /** Restore a stream cursor captured by state(). */
    void
    setState(const State &s)
    {
        for (int i = 0; i < 4; ++i) {
            state_[i] = s.words[i];
        }
        cached_ = s.cached;
        have_cached_ = s.have_cached;
    }

  private:
    /**
     * Precomputed ziggurat layers for the standard normal. kn[i] is
     * the largest 53-bit magnitude certainly inside layer i, wn[i]
     * scales a 53-bit magnitude to an abscissa, fn[i] is the density
     * at the layer boundary. Built once (thread-safe magic static)
     * with the classic Marsaglia-Tsang recurrence for 256 layers.
     */
    struct ZigguratTables
    {
        std::uint64_t kn[256];
        double wn[256];
        double fn[256];
        double r;
        double inv_r;

        ZigguratTables()
        {
            // Rightmost layer abscissa and common layer area for a
            // 256-layer normal ziggurat.
            const double m = 0x1.0p53;
            double dn = 3.6541528853610088;
            double tn = dn;
            const double vn = 0.00492867323399;
            r = dn;
            inv_r = 1.0 / dn;
            const double q = vn / std::exp(-0.5 * dn * dn);
            kn[0] = static_cast<std::uint64_t>((dn / q) * m);
            kn[1] = 0;
            wn[0] = q / m;
            wn[255] = dn / m;
            fn[0] = 1.0;
            fn[255] = std::exp(-0.5 * dn * dn);
            for (int i = 254; i >= 1; --i) {
                dn = std::sqrt(-2.0 * std::log(vn / dn +
                                               std::exp(-0.5 * dn * dn)));
                kn[i + 1] = static_cast<std::uint64_t>((dn / tn) * m);
                tn = dn;
                fn[i] = std::exp(-0.5 * dn * dn);
                wn[i] = dn / m;
            }
        }
    };

    static const ZigguratTables &
    zigguratTables()
    {
        static const ZigguratTables tables;
        return tables;
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    double cached_ = 0.0;
    bool have_cached_ = false;
};

} // namespace pentimento::util

#endif // PENTIMENTO_UTIL_RNG_HPP
