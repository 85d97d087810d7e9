// LRU cache of constructed verifiers (and their PufEmulators).
//
// Building a core::Verifier is the cold part of serving a request: the
// constructor turns the enrollment delay table into per-gate delays for
// the emulator.  The gate-level ALU circuit and its compiled timing
// kernels are shared by every device of one (width, layout), and the
// code's syndrome preimage table by every verifier over that code, so a
// miss builds only the per-device part.  The cache still amortizes that
// across requests, bounded by `capacity` verifiers: an entry holds the
// delay table, its derived delays and evaluation scratch (tens of KiB),
// while the topology it points to is shared.
//
// Concurrency contract: Verifier::verify mutates per-instance scratch
// buffers under const (the emulator's delay/state caches), so a cached
// verifier must never run two sessions at once.  acquire() therefore
// returns a *lease* — an RAII object holding both a shared_ptr to the
// entry (it survives concurrent eviction) and that entry's session mutex.
// Two requests for the same device serialize on the lease, which is the
// physically faithful behaviour anyway: a real device can only execute
// one attestation at a time.  Requests for different devices never share
// a lease and run fully in parallel.
//
// On a miss the verifier is constructed *outside* the cache lock; if two
// threads miss the same id simultaneously both construct and the loser's
// instance is discarded — wasted work, never a wrong result.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/protocol.hpp"
#include "ecc/linear_code.hpp"
#include "obs/trace.hpp"
#include "service/device_registry.hpp"

namespace pufatt::service {

struct CacheCounters {
  std::size_t hits = 0;
  std::size_t misses = 0;      ///< lookups that found no entry
  std::size_t evictions = 0;   ///< entries pushed out by capacity
  std::size_t discarded = 0;   ///< lost construction races (miss storms)
};

class EmulatorCache {
  struct Entry {
    Entry(const core::EnrollmentRecord& record, const ecc::BinaryCode& code,
          const core::ChannelParams& channel, double slack)
        : verifier(record, code, channel, slack) {}
    core::Verifier verifier;
    std::mutex session_mutex;  ///< one attestation session at a time
  };

 public:
  /// `registry` and `code` must outlive the cache.  `channel`/`slack` are
  /// forwarded to every constructed Verifier.  Any RegistryView works —
  /// a plain DeviceRegistry or a sharded store's routing view — since the
  /// cache only ever loads records by id.
  EmulatorCache(const RegistryView& registry, const ecc::BinaryCode& code,
                std::size_t capacity, const core::ChannelParams& channel = {},
                double slack = 0.03);

  EmulatorCache(const EmulatorCache&) = delete;
  EmulatorCache& operator=(const EmulatorCache&) = delete;

  class Lease {
   public:
    Lease() = default;
    explicit operator bool() const { return entry_ != nullptr; }
    /// Valid for the lease's lifetime; exclusive across threads.
    const core::Verifier& verifier() const { return entry_->verifier; }

   private:
    friend class EmulatorCache;
    explicit Lease(std::shared_ptr<Entry> entry)
        : entry_(std::move(entry)), session_lock_(entry_->session_mutex) {}
    std::shared_ptr<Entry> entry_;
    std::unique_lock<std::mutex> session_lock_;
  };

  /// Blocks while another thread holds this device's lease.  Returns an
  /// empty lease when the device is not registered.
  Lease acquire(const std::string& device_id) { return acquire(device_id, {}); }

  /// As above, recording a "cache.acquire" span under `trace` covering
  /// lookup + (on a miss) construction + the wait for the device lease,
  /// with a hit=0/1 note; misses get a nested "cache.build" span around
  /// the verifier construction itself, which separates "the emulator was
  /// cold" from "the device was busy" in a trace.
  Lease acquire(const std::string& device_id, const obs::TraceScope& trace);

  /// Drops a cached verifier (e.g. after re-enrollment changed the
  /// record).  In-flight leases stay valid; the next acquire rebuilds.
  void invalidate(const std::string& device_id);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  CacheCounters counters() const;

 private:
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<std::string>::iterator lru_it;
  };

  /// Marks `it` most-recently-used.  Caller holds mutex_.
  void touch(std::unordered_map<std::string, Slot>::iterator it);

  const RegistryView* registry_;
  const ecc::BinaryCode* code_;
  std::size_t capacity_;
  core::ChannelParams channel_;
  double slack_;

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< MRU at the front; eviction pops the back
  std::unordered_map<std::string, Slot> map_;
  CacheCounters counters_;
};

}  // namespace pufatt::service
