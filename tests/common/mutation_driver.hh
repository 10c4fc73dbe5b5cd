/**
 * @file
 * One deterministic mutation-fuzz driver for every reader of outside
 * bytes (the CSV loader, the `.aiwt` and wire-frame decoders, the
 * `.scn` parser). A test gives it a reader name, one valid input and a
 * seed, and runs batches of mutants through one oracle that states the
 * reader's contract.
 *
 * Mutant `index` of a kind comes from its own Rng keyed by (seed,
 * kind, index), so no mutant depends on another. After a mutant fails
 * its oracle the driver adds a failure naming reader, kind, index and
 * seed; mutant(kind, index) rebuilds those bytes, and re-running the
 * test under --gtest_filter replays every mutant.
 */

#ifndef AIWC_TESTS_COMMON_MUTATION_DRIVER_HH
#define AIWC_TESTS_COMMON_MUTATION_DRIVER_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>

#include "aiwc/common/rng.hh"

namespace aiwc::fuzz
{

enum class MutationKind
{
    EveryPrefix,  //!< mutant i is the first i bytes, for every i < size
    Truncate,     //!< a random strict prefix
    BitFlip,      //!< 1-4 single-bit flips
    ByteReplace,  //!< 1-8 bytes, each XORed with a random nonzero byte
    Splice,       //!< input[0, a) + input[b, size) for random a and b
    Garbage,      //!< random bytes, optionally biased to an alphabet
};

inline const char *const kind_names[] = {
    "every-prefix", "truncate", "bit-flip",
    "byte-replace", "splice",   "garbage"};

struct Mutant
{
    MutationKind kind;
    std::string bytes;

    std::span<const std::uint8_t>
    span() const
    {
        return {reinterpret_cast<const std::uint8_t *>(bytes.data()),
                bytes.size()};
    }

    /** EveryPrefix and Truncate only cut the input short. */
    bool prefix() const { return kind <= MutationKind::Truncate; }
};

/** `count` mutants of one kind; EveryPrefix runs every prefix. */
struct Batch
{
    MutationKind kind;
    std::size_t count = 0;
};

class MutationDriver
{
  public:
    /** `input` is a non-empty valid input of `reader`. */
    MutationDriver(std::string reader, std::string input, std::uint64_t seed)
        : reader_(std::move(reader)), input_(std::move(input)), seed_(seed)
    {
    }

    /**
     * Garbage is at most `max_bytes` long; with an alphabet, each byte
     * is drawn from it, or 8% of the time is any raw byte.
     */
    MutationDriver &
    garbage(std::size_t max_bytes, std::string alphabet = {})
    {
        garbage_bytes_ = max_bytes;
        alphabet_ = std::move(alphabet);
        return *this;
    }

    Mutant
    mutant(MutationKind kind, std::size_t index) const
    {
        Mutant m{kind, input_};
        std::string &b = m.bytes;
        const std::size_t n = input_.size();
        Rng rng(seed_ ^ (static_cast<std::uint64_t>(kind) << 56) ^ index);
        switch (kind) {
          case MutationKind::EveryPrefix: b.resize(index); break;
          case MutationKind::Truncate: b.resize(rng.below(n)); break;
          case MutationKind::BitFlip:
            for (auto k = 1 + rng.below(4); k > 0; --k)
                b[rng.below(n)] ^= static_cast<char>(1u << rng.below(8));
            break;
          case MutationKind::ByteReplace:
            for (auto k = 1 + rng.below(8); k > 0; --k)
                b[rng.below(n)] ^= static_cast<char>(1 + rng.below(255));
            break;
          case MutationKind::Splice: {
            const std::size_t cut = rng.below(n + 1);
            b = input_.substr(0, cut) + input_.substr(rng.below(n + 1));
            break;
          }
          case MutationKind::Garbage:
            b.resize(rng.below(garbage_bytes_ + 1));
            for (char &c : b)
                c = alphabet_.empty() || rng.chance(0.08)
                        ? static_cast<char>(rng.below(256))
                        : alphabet_[rng.below(alphabet_.size())];
        }
        return m;
    }

    /** Run `oracle(mutant)` on every mutant of every batch, in order. */
    template <typename Oracle>
    void
    run(std::initializer_list<Batch> batches, Oracle &&oracle) const
    {
        // Name a mutant only once it fails: a gtest trace per mutant
        // would cost more than most oracles.
        const ::testing::TestResult &result =
            *::testing::UnitTest::GetInstance()->current_test_info()
                 ->result();
        for (const Batch &batch : batches) {
            const bool every = batch.kind == MutationKind::EveryPrefix;
            for (std::size_t i = 0; i < (every ? input_.size() : batch.count);
                 ++i) {
                const int failures = result.total_part_count();
                oracle(mutant(batch.kind, i));
                if (result.total_part_count() != failures)
                    ADD_FAILURE()
                        << "failing mutant: reader " << reader_ << ", kind "
                        << kind_names[static_cast<int>(batch.kind)]
                        << ", index " << i << ", seed " << std::hex
                        << std::showbase << seed_;
            }
        }
    }

  private:
    std::string reader_;
    std::string input_;
    std::uint64_t seed_;
    std::size_t garbage_bytes_ = 512;
    std::string alphabet_;
};

} // namespace aiwc::fuzz

#endif // AIWC_TESTS_COMMON_MUTATION_DRIVER_HH
