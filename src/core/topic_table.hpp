// Grow-only sensor-topic index with lock-free lookups.
//
// The Collect Agent turns every section's topic into a SID, caches the
// sensor's newest reading and keeps the hierarchy browsable (paper,
// Sections 4.2 and 5.3), on every broker session thread at once. None of
// those structures ever forgets a topic, so their index can grow only:
// a lookup then takes no lock and writes no shared memory — not even a
// reader count — and costs one hash and one short probe sequence.
//
// Layout: an open-addressing array of entry pointers (linear probing,
// at most half full) over heap entries that hold the key, its hash and
// the value. Inserts serialize on one mutex, build the entry completely
// and publish it with a release store into an empty slot. At half load
// the writer fills a doubled array and publishes that; a reader still
// probing an older array stays correct, because every array keeps the
// entries it was published with and lives until the table dies.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "mqtt/topic.hpp"

namespace dcdb {

/// Map from normalized sensor topic (normalize_sensor_topic) to a `V`
/// that lives, at a stable address, as long as the table. Any spelling
/// of a topic finds its entry.
template <typename V>
class TopicTable {
  public:
    TopicTable() {
        MutexLock lock(mutex_);
        publish(std::make_unique<SlotArray>(kMinSlots));
    }
    TopicTable(const TopicTable&) = delete;
    TopicTable& operator=(const TopicTable&) = delete;

    /// The value under `topic`, or nullptr. Takes no lock and writes no
    /// shared memory. Every key is normalized, so a hit on the raw
    /// spelling needs no check; a miss normalizes into thread-local
    /// scratch (allocation-free once warm) and probes again.
    const V* find(std::string_view topic) const {
        if (const Entry* e = probe(topic, hash_of(topic))) return &e->value;
        thread_local std::string normalized;
        normalize_sensor_topic(topic, normalized);
        if (normalized == topic) return nullptr;
        const Entry* e = probe(normalized, hash_of(normalized));
        return e ? &e->value : nullptr;
    }
    V* find(std::string_view topic) {
        return const_cast<V*>(std::as_const(*this).find(topic));
    }

    /// The value under `topic`, constructed from `args` if the topic is
    /// new; the flag says whether this call inserted it. The entry is
    /// visible to find() once this returns, and never before it is built.
    template <typename... Args>
    std::pair<V*, bool> try_emplace(std::string_view topic, Args&&... args)
        DCDB_EXCLUDES(mutex_) {
        std::string key = normalize_sensor_topic(topic);
        const std::size_t hash = hash_of(key);
        MutexLock lock(mutex_);
        if (Entry* e = probe(key, hash)) return {&e->value, false};
        SlotArray* slots = current_.load(std::memory_order_relaxed);
        if (2 * (entries_.size() + 1) > slots->size()) {
            auto bigger = std::make_unique<SlotArray>(2 * slots->size());
            for (const auto& e : entries_) bigger->place(e.get());
            slots = publish(std::move(bigger));
        }
        entries_.push_back(std::make_unique<Entry>(
            std::move(key), hash, std::forward<Args>(args)...));
        Entry* e = entries_.back().get();
        slots->place(e);
        return {&e->value, true};
    }

    std::size_t size() const DCDB_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return entries_.size();
    }

    /// Calls `f(topic, value)` for every entry in insertion order while
    /// holding the insert mutex, so `f` must not insert.
    template <typename F>
    void for_each(F&& f) const DCDB_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        for (const auto& e : entries_)
            f(std::string_view(e->key), std::as_const(e->value));
    }

  private:
    static constexpr std::size_t kMinSlots = 16;  // a power of two

    struct Entry {
        template <typename... Args>
        Entry(std::string k, std::size_t h, Args&&... args)
            : key(std::move(k)), hash(h), value(std::forward<Args>(args)...) {}

        const std::string key;
        const std::size_t hash;
        V value;
    };

    class SlotArray {
      public:
        explicit SlotArray(std::size_t size)
            : mask_(size - 1), slots_(std::make_unique<Slot[]>(size)) {}

        std::size_t size() const { return mask_ + 1; }

        Entry* probe(std::string_view key, std::size_t hash) const {
            for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
                Entry* e = slots_[i].load(std::memory_order_acquire);
                if (e == nullptr) return nullptr;  // at most half full
                if (e->hash == hash && e->key == key) return e;
            }
        }

        /// Insert mutex held. The release store publishes the built
        /// entry to readers already probing this array.
        void place(Entry* e) {
            std::size_t i = e->hash & mask_;
            while (slots_[i].load(std::memory_order_relaxed) != nullptr)
                i = (i + 1) & mask_;
            slots_[i].store(e, std::memory_order_release);
        }

      private:
        // dcdblint: allow-atomic(entry pointer read by lock-free probes)
        using Slot = std::atomic<Entry*>;

        std::size_t mask_;
        std::unique_ptr<Slot[]> slots_;  // value-initialized: all empty
    };

    static std::size_t hash_of(std::string_view key) {
        return std::hash<std::string_view>{}(key);
    }

    Entry* probe(std::string_view key, std::size_t hash) const {
        return current_.load(std::memory_order_acquire)->probe(key, hash);
    }

    /// Makes `slots` the array find() probes; the previous one is kept.
    SlotArray* publish(std::unique_ptr<SlotArray> slots)
        DCDB_REQUIRES(mutex_) {
        SlotArray* raw = slots.get();
        arrays_.push_back(std::move(slots));
        current_.store(raw, std::memory_order_release);
        return raw;
    }

    mutable Mutex mutex_;  // serializes inserts
    // Owners of every entry and of every slot array ever published;
    // find() never reads these vectors, only what they point to.
    std::vector<std::unique_ptr<Entry>> entries_ DCDB_GUARDED_BY(mutex_);
    std::vector<std::unique_ptr<SlotArray>> arrays_ DCDB_GUARDED_BY(mutex_);
    // dcdblint: allow-atomic(slot array pointer read by lock-free probes)
    std::atomic<SlotArray*> current_{nullptr};
};

}  // namespace dcdb
