// Persistent key-value metadata table.
//
// Plays the role of DCDB's auxiliary Cassandra column families: the
// topic-to-SID dictionary, published sensor metadata (units, scales,
// intervals) and virtual sensor definitions all live here. Backed by a
// RecordLog ('DMS1', store/file.hpp) of one record per put or erase,
// replayed at open, whose body is u8 op ('P' or 'E') | u32 key length |
// key | value (the rest of the body; none for an erase).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "store/file.hpp"

namespace dcdb::store {

class MetaStore {
  public:
    /// Open (creating if needed) the backing log at `path`; pass an empty
    /// path for a purely in-memory store.
    explicit MetaStore(std::string path = "");

    MetaStore(const MetaStore&) = delete;
    MetaStore& operator=(const MetaStore&) = delete;

    /// put and erase change the map only once their record is written
    /// (handed to the kernel). A failed write throws StoreError, and
    /// every later write then throws until the store is reopened.
    void put(const std::string& key, const std::string& value)
        DCDB_EXCLUDES(mutex_);
    std::optional<std::string> get(const std::string& key) const
        DCDB_EXCLUDES(mutex_);
    void erase(const std::string& key) DCDB_EXCLUDES(mutex_);
    bool contains(const std::string& key) const DCDB_EXCLUDES(mutex_);

    /// All (key, value) pairs whose key starts with `prefix`, sorted.
    std::vector<std::pair<std::string, std::string>> scan_prefix(
        const std::string& prefix) const DCDB_EXCLUDES(mutex_);

    std::size_t size() const DCDB_EXCLUDES(mutex_);

    /// True once a write failed: every later put and erase throws.
    bool failed() const { return log_ && log_->failed(); }

  private:
    void write_record(char op, const std::string& key,
                      const std::string& value) DCDB_REQUIRES(mutex_);

    mutable dcdb::Mutex mutex_;
    std::unordered_map<std::string, std::string> map_
        DCDB_GUARDED_BY(mutex_);
    // Null for an in-memory store. It has its own lock; lock order:
    // mutex_ -> RecordLog.
    std::unique_ptr<RecordLog> log_;
};

}  // namespace dcdb::store
