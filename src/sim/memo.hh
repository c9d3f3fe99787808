/**
 * @file
 * A direct-mapped memo of pointers into a node-based table, keyed by
 * page number. The execute path puts one in front of each per-access
 * table search (page tables, delta backup records), so a run of
 * accesses to a few pages resolves each page once.
 */

#ifndef INDRA_SIM_MEMO_HH
#define INDRA_SIM_MEMO_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace indra
{

/**
 * @tparam T the table's mapped type; the memo holds T pointers
 *
 * The memo never owns what it points at. Its owner must drop() a key
 * whenever the node it memoized is erased; std::unordered_map and
 * std::map nodes keep their address across inserts and rehashes, so
 * nothing else invalidates a slot.
 */
template <typename T>
class PointerMemo
{
  public:
    static constexpr unsigned slotBits = 6;
    static constexpr std::size_t numSlots = std::size_t{1} << slotBits;

    /**
     * Slot of @p key: the top bits of a Fibonacci hash, so keys that
     * differ only in high bits (region bases a multiple of numSlots
     * apart) still spread over the slots.
     */
    static constexpr std::size_t
    slotOf(std::uint64_t key)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        (64 - slotBits));
    }

    /** The memoized pointer for @p key, or nullptr on a miss. */
    T *
    find(std::uint64_t key) const
    {
        const Slot &s = slots[slotOf(key)];
        return s.ptr && s.key == key ? s.ptr : nullptr;
    }

    /** Memoize @p ptr for @p key, evicting the slot's previous key. */
    void
    fill(std::uint64_t key, T *ptr)
    {
        slots[slotOf(key)] = {key, ptr};
    }

    /** Forget @p key, if memoized. */
    void
    drop(std::uint64_t key)
    {
        Slot &s = slots[slotOf(key)];
        if (s.key == key)
            s = Slot{};
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        T *ptr = nullptr;  //!< nullptr marks an empty slot
    };
    std::array<Slot, numSlots> slots{};
};

} // namespace indra

#endif // INDRA_SIM_MEMO_HH
