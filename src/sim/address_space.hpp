/**
 * @file
 * Simulated unified address space. Functional data lives in host vectors
 * (DeviceBuffer<T>); the simulator only sees addresses, which drive all
 * cache/NoC/DRAM timing. Allocation bumps a pointer and never frees:
 * a Gpu's buffers keep their addresses for its whole run.
 */

#ifndef GGA_SIM_ADDRESS_SPACE_HPP
#define GGA_SIM_ADDRESS_SPACE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "support/log.hpp"
#include "support/types.hpp"

namespace gga {

/** Bump allocator for the unified shared address space. */
class AddressSpace
{
  public:
    /** Allocate @p bytes aligned to a cache line. */
    Addr
    allocate(std::uint64_t bytes)
    {
        constexpr Addr alignment = 256;
        const Addr base = next_;
        next_ += (bytes + alignment - 1) & ~(alignment - 1);
        return base;
    }

  private:
    Addr next_ = 0x1000; // keep address 0 unused
};

/**
 * A typed array in the simulated address space: host-side values plus a
 * simulated base address.
 */
template <typename T>
class DeviceBuffer
{
  public:
    DeviceBuffer() = default;

    DeviceBuffer(AddressSpace& space, std::size_t n, T init = T{})
        : data_(n, init), base_(space.allocate(n * sizeof(T)))
    {
    }

    /**
     * Construct by copying host data (e.g. the arrays of a CsrGraph, which
     * may be mmap-backed); the buffer owns its copy since simulated
     * kernels mutate device memory.
     */
    DeviceBuffer(AddressSpace& space, std::span<const T> data)
        : data_(data.begin(), data.end()),
          base_(space.allocate(data_.size() * sizeof(T)))
    {
    }

    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }

    /** Simulated byte address of element @p i. */
    Addr
    addrOf(std::size_t i) const
    {
        GGA_ASSERT(i < data_.size(), "DeviceBuffer index out of range");
        return base_ + i * sizeof(T);
    }

    std::size_t size() const { return data_.size(); }
    const std::vector<T>& host() const { return data_; }
    std::vector<T>& host() { return data_; }

  private:
    std::vector<T> data_;
    Addr base_ = 0;
};

} // namespace gga

#endif // GGA_SIM_ADDRESS_SPACE_HPP
