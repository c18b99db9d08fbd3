/**
 * @file
 * Fundamental scalar types shared by every MOUSE subsystem.
 *
 * All physical quantities use SI base units (seconds, joules, watts,
 * volts, amperes, ohms, farads) carried in doubles.  Strong typedefs
 * are intentionally avoided for these since the simulator performs
 * heavy mixed arithmetic on them; the suffix on each alias documents
 * the unit instead.
 */

#ifndef MOUSE_COMMON_TYPES_HH
#define MOUSE_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace mouse
{

/** Simulation cycle count (one MOUSE instruction slot per cycle). */
using Cycle = std::uint64_t;

/** Time in seconds. */
using Seconds = double;

/** Energy in joules. */
using Joules = double;

/** Power in watts. */
using Watts = double;

/** Electric potential in volts. */
using Volts = double;

/** Current in amperes. */
using Amperes = double;

/** Resistance in ohms. */
using Ohms = double;

/** Capacitance in farads. */
using Farads = double;

/** Area in square millimeters (matches the paper's Table III units). */
using SquareMm = double;

/** Row index within a tile (10-bit address space, 0..1023). */
using RowAddr = std::uint16_t;

/** Column index within a tile (10-bit address space, 0..1023). */
using ColAddr = std::uint16_t;

/** Tile index within the accelerator (9-bit address space, 0..511). */
using TileAddr = std::uint16_t;

/** A single stored bit; MTJ state maps P->0, AP->1. */
using Bit = std::uint8_t;

/**
 * Explicit non-owning observer of an object the caller keeps alive.
 *
 * Replaces documented-but-fragile raw pointers in request structs
 * (RunRequest historically carried `const Trace *trace` with a
 * "must outlive the call" comment).  The type states the contract in
 * the signature: construction is explicit — from a reference via
 * observe(), never implicitly from a pointer — so a reader can grep
 * every place a lifetime dependency is created, and a default-
 * constructed observer is unambiguously "not provided".
 *
 * It remains non-owning: the referent must outlive every use of the
 * observer (for a RunRequest, until Accelerator::execute()
 * returns).  See docs/EXPERIMENTS_API.md.
 */
template <typename T>
class ObserverPtr
{
  public:
    constexpr ObserverPtr() = default;
    constexpr ObserverPtr(std::nullptr_t) {}
    explicit constexpr ObserverPtr(T &ref) : ptr_(&ref) {}

    /** Qualification conversion (ObserverPtr<T> -> <const T>). */
    template <typename U,
              typename = std::enable_if_t<
                  std::is_convertible_v<U *, T *>>>
    constexpr ObserverPtr(ObserverPtr<U> other) : ptr_(other.get())
    {
    }

    constexpr T *get() const { return ptr_; }
    constexpr T &operator*() const { return *ptr_; }
    constexpr T *operator->() const { return ptr_; }
    explicit constexpr operator bool() const
    {
        return ptr_ != nullptr;
    }

    friend constexpr bool
    operator==(ObserverPtr a, ObserverPtr b)
    {
        return a.ptr_ == b.ptr_;
    }
    friend constexpr bool
    operator!=(ObserverPtr a, ObserverPtr b)
    {
        return a.ptr_ != b.ptr_;
    }

  private:
    T *ptr_ = nullptr;
};

/** The one way to create an ObserverPtr: observe(x) reads as "x is
 *  borrowed here; keep it alive". */
template <typename T>
constexpr ObserverPtr<T>
observe(T &ref)
{
    return ObserverPtr<T>(ref);
}

namespace units
{

constexpr double kilo = 1e3;
constexpr double mega = 1e6;
constexpr double giga = 1e9;
constexpr double milli = 1e-3;
constexpr double micro = 1e-6;
constexpr double nano = 1e-9;
constexpr double pico = 1e-12;
constexpr double femto = 1e-15;

} // namespace units

} // namespace mouse

#endif // MOUSE_COMMON_TYPES_HH
