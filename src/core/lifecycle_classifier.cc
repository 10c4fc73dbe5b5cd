#include "aiwc/core/lifecycle_classifier.hh"

#include <array>

namespace aiwc::core
{

namespace
{

/**
 * Terminal state -> lifecycle class, as a branch-free lookup usable
 * over the raw terminal column. Kept in lockstep with classify()'s
 * switch below (which documents the mapping).
 */
constexpr Lifecycle
classifyTerminal(TerminalState terminal)
{
    switch (terminal) {
      case TerminalState::Completed:
        return Lifecycle::Mature;
      case TerminalState::Cancelled:
        return Lifecycle::Exploratory;
      case TerminalState::Failed:
      case TerminalState::NodeFailure:
        return Lifecycle::Development;
      case TerminalState::TimedOut:
        return Lifecycle::Ide;
    }
    return Lifecycle::Mature;
}

/** classifyTerminal over every valid raw terminal value, for u8 rows. */
constexpr std::array<Lifecycle, num_terminal_states>
makeTerminalTable()
{
    std::array<Lifecycle, num_terminal_states> table{};
    for (int t = 0; t < num_terminal_states; ++t)
        table[static_cast<std::size_t>(t)] =
            classifyTerminal(static_cast<TerminalState>(t));
    return table;
}

constexpr auto terminal_table = makeTerminalTable();

} // namespace

Lifecycle
LifecycleClassifier::classify(const JobRecord &job) const
{
    // Hardware losses are <0.5% of jobs (Sec. II); like the paper,
    // classifyTerminal folds them into the failed/development bucket.
    return classifyTerminal(job.terminal);
}

double
LifecycleClassifier::accuracyAgainstTruth(const Dataset &dataset) const
{
    const auto idx = dataset.gpuJobIndices();
    if (idx.empty())
        return 1.0;
    const ColumnTable &cols = dataset.columns();
    const std::span<const std::uint8_t> terminal = cols.terminals();
    const std::span<const std::uint8_t> truth = cols.trueClasses();
    std::size_t agree = 0;
    for (const std::uint32_t r : idx)
        if (static_cast<std::uint8_t>(terminal_table[terminal[r]]) ==
            truth[r])
            ++agree;
    return static_cast<double>(agree) / static_cast<double>(idx.size());
}

} // namespace aiwc::core
