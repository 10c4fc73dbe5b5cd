#include "aiwc/core/id_table.hh"

#include <algorithm>

#include "aiwc/base/check.hh"

namespace aiwc::core
{

std::size_t
IdTable::slotOf(std::uint32_t raw) const
{
    // Fibonacci hashing: the upper half of raw * 2^64 / phi spreads
    // runs of consecutive ids over the whole table.
    const std::size_t mask = slots_.size() - 1;
    std::size_t at =
        static_cast<std::size_t>((raw * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    while (slots_[at].dense != invalid_id && slots_[at].raw != raw)
        at = (at + 1) & mask;
    return at;
}

void
IdTable::rehash(std::size_t slot_count)
{
    slots_.assign(slot_count, Slot{});
    for (std::size_t dense = 0; dense < raw_ids_.size(); ++dense)
        slots_[slotOf(raw_ids_[dense])] =
            Slot{raw_ids_[dense], static_cast<std::uint32_t>(dense)};
}

std::uint32_t
IdTable::intern(std::uint32_t raw)
{
    if (2 * (raw_ids_.size() + 1) > slots_.size())
        rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    Slot &slot = slots_[slotOf(raw)];
    if (slot.dense != invalid_id)
        return slot.dense;
    const auto dense = static_cast<std::uint32_t>(raw_ids_.size());
    AIWC_CHECK(dense != invalid_id, "id table full");
    raw_ids_.push_back(raw);
    slot = Slot{raw, dense};
    return dense;
}

std::uint32_t
IdTable::denseOf(std::uint32_t raw) const
{
    return slots_.empty() ? invalid_id : slots_[slotOf(raw)].dense;
}

std::uint32_t
IdTable::rawOf(std::uint32_t dense) const
{
    AIWC_CHECK(dense < raw_ids_.size(), "dense id ", dense,
               " out of range (", raw_ids_.size(), " interned)");
    return raw_ids_[dense];
}

std::vector<std::uint32_t>
IdTable::mergeFrom(const IdTable &other)
{
    std::vector<std::uint32_t> remap;
    remap.reserve(other.raw_ids_.size());
    for (const std::uint32_t raw : other.raw_ids_)
        remap.push_back(intern(raw));
    return remap;
}

IdTable
IdTable::fromRawIds(std::span<const std::uint32_t> raw_ids)
{
    IdTable table;
    for (const std::uint32_t raw : raw_ids) {
        const std::uint32_t before =
            static_cast<std::uint32_t>(table.size());
        const std::uint32_t dense = table.intern(raw);
        AIWC_CHECK(dense == before, "duplicate raw id ", raw,
                   " in dense id table");
    }
    return table;
}

std::size_t
IdTable::bytes() const
{
    return raw_ids_.capacity() * sizeof(std::uint32_t) +
           slots_.capacity() * sizeof(Slot);
}

} // namespace aiwc::core
