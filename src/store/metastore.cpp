#include "store/metastore.hpp"

#include <algorithm>

#include "common/bytebuf.hpp"

namespace dcdb::store {

namespace {

constexpr std::uint32_t kMetaMagic = 0x444D5331;  // 'DMS1'
constexpr std::uint32_t kMetaVersion = 1;

constexpr char kPut = 'P';
constexpr char kErase = 'E';
constexpr std::size_t kBodyHeadBytes = 1 + 4;  // op, key length

}  // namespace

MetaStore::MetaStore(std::string path) {
    if (path.empty()) return;
    log_ = std::make_unique<RecordLog>(
        std::move(path), kMetaMagic, kMetaVersion,
        [this](std::span<const std::uint8_t> body) {
            if (body.size() < kBodyHeadBytes) return false;
            ByteReader r(body);
            const char op = static_cast<char>(r.u8());
            const std::uint32_t key_len = r.u32be();
            if (key_len > r.remaining()) return false;
            std::string key = r.str(key_len);
            if (op == kPut) map_[std::move(key)] = r.str(r.remaining());
            else if (op == kErase && r.empty()) map_.erase(key);
            else return false;
            return true;
        });
}

void MetaStore::write_record(char op, const std::string& key,
                             const std::string& value) {
    if (!log_) return;
    std::vector<std::uint8_t> record(RecordLog::kFrameBytes +
                                     kBodyHeadBytes + key.size() +
                                     value.size());
    std::uint8_t* p = record.data() + 4;  // behind the length
    *p = static_cast<std::uint8_t>(op);
    store_be32(p + 1, static_cast<std::uint32_t>(key.size()));
    std::copy(key.begin(), key.end(), p + kBodyHeadBytes);
    std::copy(value.begin(), value.end(), p + kBodyHeadBytes + key.size());
    RecordLog::seal(record);
    log_->append(record);
}

void MetaStore::put(const std::string& key, const std::string& value) {
    MutexLock lock(mutex_);
    write_record(kPut, key, value);
    map_[key] = value;
}

std::optional<std::string> MetaStore::get(const std::string& key) const {
    MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
}

void MetaStore::erase(const std::string& key) {
    MutexLock lock(mutex_);
    if (!map_.contains(key)) return;
    write_record(kErase, key, "");
    map_.erase(key);
}

bool MetaStore::contains(const std::string& key) const {
    MutexLock lock(mutex_);
    return map_.count(key) > 0;
}

std::vector<std::pair<std::string, std::string>> MetaStore::scan_prefix(
    const std::string& prefix) const {
    std::vector<std::pair<std::string, std::string>> out;
    {
        MutexLock lock(mutex_);
        for (const auto& [k, v] : map_) {
            if (k.size() >= prefix.size() &&
                k.compare(0, prefix.size(), prefix) == 0)
                out.emplace_back(k, v);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t MetaStore::size() const {
    MutexLock lock(mutex_);
    return map_.size();
}

}  // namespace dcdb::store
