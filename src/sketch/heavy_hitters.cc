#include "aiwc/sketch/heavy_hitters.hh"

#include <algorithm>

#include "aiwc/base/check.hh"

namespace aiwc::sketch
{

HeavyHitters::HeavyHitters(std::size_t capacity)
    : capacity_(capacity)
{
    AIWC_CHECK(capacity_ > 0, "heavy-hitters capacity must be positive");
}

void
HeavyHitters::add(std::uint64_t key, double weight)
{
    AIWC_DCHECK(weight >= 0.0, "heavy-hitters weight must be non-negative");
    total_ += weight;
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Slot &slot, std::uint64_t k) { return slot.first < k; });
    if (it != entries_.end() && it->first == key) {
        it->second.count += weight;
        return;
    }
    if (entries_.size() < capacity_) {
        entries_.insert(it, Slot{key, Cell{weight, 0.0}});
        return;
    }
    // Space-saving eviction: replace the minimum-count entry, charging
    // its count as the newcomer's error allowance. Scanning in key
    // order and requiring a strict improvement makes the victim the
    // smallest key among the minima — deterministic by value.
    auto victim = entries_.begin();
    for (auto jt = std::next(entries_.begin()); jt != entries_.end(); ++jt) {
        if (jt->second.count < victim->second.count)
            victim = jt;
    }
    const double floor = victim->second.count;
    // Move the slots between the victim and the newcomer's place over
    // by one, so the vector stays sorted without reallocating.
    const Slot fresh{key, Cell{floor + weight, floor}};
    if (victim < it) {
        std::move(std::next(victim), it, victim);
        *std::prev(it) = fresh;
    } else {
        std::move_backward(it, victim, std::next(victim));
        *it = fresh;
    }
}

void
HeavyHitters::merge(const HeavyHitters &other)
{
    AIWC_CHECK_EQ(capacity_, other.capacity_,
                  "heavy-hitters merge requires identical capacity");
    total_ += other.total_;
    // Union of two key-sorted runs; a key in both sums its cells.
    std::vector<Slot> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    auto a = entries_.begin();
    auto b = other.entries_.begin();
    while (a != entries_.end() || b != other.entries_.end()) {
        if (b == other.entries_.end() ||
            (a != entries_.end() && a->first < b->first)) {
            merged.push_back(*a++);
        } else if (a == entries_.end() || b->first < a->first) {
            merged.push_back(*b++);
        } else {
            merged.push_back(Slot{a->first,
                                  Cell{a->second.count + b->second.count,
                                       a->second.error + b->second.error}});
            ++a;
            ++b;
        }
    }
    entries_ = std::move(merged);
    if (entries_.size() <= capacity_) {
        clampErrors();
        return;
    }
    // Misra-Gries shrink: subtract the (capacity+1)-th largest count
    // from every entry and drop those that hit zero or below; the
    // subtracted mass moves into the survivors' error bounds.
    std::vector<double> counts;
    counts.reserve(entries_.size());
    for (const auto &[key, cell] : entries_)
        counts.push_back(cell.count);
    std::nth_element(counts.begin(), counts.begin() + capacity_,
                     counts.end(), std::greater<>());
    const double threshold = counts[capacity_];
    for (auto &[key, cell] : entries_) {
        cell.count -= threshold;
        cell.error += threshold;
    }
    std::erase_if(entries_,
                  [](const Slot &slot) { return slot.second.count <= 0.0; });
    clampErrors();
}

void
HeavyHitters::clampErrors()
{
    // Repeated merges sum the per-shard error allowances, so after a
    // deep merge tree `error` can exceed `count` — which would make
    // the count - error lower bound negative, a vacuous (and, for
    // consumers that subtract it, actively wrong) guarantee. A true
    // weight is never negative, so error > count carries no extra
    // information: clamp it and keep the bound meaningful.
    for (auto &[key, cell] : entries_) {
        if (cell.error > cell.count)
            cell.error = cell.count;
    }
}

std::vector<HeavyHitters::Entry>
HeavyHitters::topK(std::size_t k) const
{
    std::vector<Entry> out;
    out.reserve(entries_.size());
    for (const auto &[key, cell] : entries_)
        out.push_back(Entry{key, cell.count, cell.error});
    std::sort(out.begin(), out.end(), [](const Entry &a, const Entry &b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.key < b.key;
    });
    if (out.size() > k)
        out.resize(k);
    return out;
}

std::size_t
HeavyHitters::bytes() const
{
    return sizeof(*this) + entries_.capacity() * sizeof(Slot);
}

} // namespace aiwc::sketch
