#include "harness/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace pasta::harness {

namespace {

/// Pull-parser over one flat JSON object line.  Only what the journal
/// emits is supported: string, number, and bool values.
class FlatJsonReader {
  public:
    explicit FlatJsonReader(const std::string& text) : text_(text) {}

    bool parse(std::map<std::string, std::string>& strings,
               std::map<std::string, double>& numbers,
               std::map<std::string, bool>& bools)
    {
        skip_ws();
        if (!consume('{'))
            return false;
        skip_ws();
        if (consume('}'))
            return at_end();
        for (;;) {
            std::string k;
            if (!parse_string(k))
                return false;
            skip_ws();
            if (!consume(':'))
                return false;
            skip_ws();
            if (peek() == '"') {
                std::string v;
                if (!parse_string(v))
                    return false;
                strings[k] = v;
            } else if (text_.compare(pos_, 4, "true") == 0) {
                bools[k] = true;
                pos_ += 4;
            } else if (text_.compare(pos_, 5, "false") == 0) {
                bools[k] = false;
                pos_ += 5;
            } else {
                char* end = nullptr;
                const double v = std::strtod(text_.c_str() + pos_, &end);
                if (end == text_.c_str() + pos_)
                    return false;
                numbers[k] = v;
                pos_ = static_cast<std::size_t>(end - text_.c_str());
            }
            skip_ws();
            if (consume(','))
                skip_ws();
            else
                break;
        }
        if (!consume('}'))
            return false;
        return at_end();
    }

  private:
    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool at_end()
    {
        skip_ws();
        return pos_ == text_.size();
    }

    bool parse_string(std::string& out)
    {
        const char* p = text_.data() + pos_;
        if (!json::parse_string(p, text_.data() + text_.size(), out))
            return false;
        pos_ = static_cast<std::size_t>(p - text_.data());
        return true;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string
to_json_line(const JournalEntry& entry)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << "{\"tensor\":\"" << json::escaped(entry.tensor_id) << "\""
        << ",\"kernel\":\"" << json::escaped(entry.kernel) << "\""
        << ",\"format\":\"" << json::escaped(entry.format) << "\""
        << ",\"ok\":" << (entry.ok ? "true" : "false")
        << ",\"seconds\":" << entry.seconds << ",\"flops\":" << entry.flops
        << ",\"bytes\":" << entry.bytes << ",\"attempts\":" << entry.attempts
        << ",\"error\":\"" << json::escaped(entry.error) << "\""
        << ",\"class\":\"" << json::escaped(entry.failure_class) << "\""
        << ",\"variant\":\"" << json::escaped(entry.variant) << "\""
        << ",\"obs_flops\":" << entry.obs_flops
        << ",\"obs_bytes\":" << entry.obs_bytes
        << ",\"mem_peak\":" << entry.mem_peak
        << ",\"partitions_done\":" << entry.partitions_done
        << ",\"partitions_total\":" << entry.partitions_total;
    // Optional field: omitted when empty so unsharded journal lines stay
    // byte-identical to pre-campaign ones.
    if (!entry.shard.empty())
        oss << ",\"shard\":\"" << json::escaped(entry.shard) << "\"";
    oss << "}";
    return oss.str();
}

bool
parse_json_line(const std::string& line, JournalEntry& entry)
{
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;
    std::map<std::string, bool> bools;
    FlatJsonReader reader(line);
    if (!reader.parse(strings, numbers, bools))
        return false;
    if (!strings.count("tensor") || !strings.count("kernel") ||
        !strings.count("format") || !bools.count("ok"))
        return false;
    entry.tensor_id = strings["tensor"];
    entry.kernel = strings["kernel"];
    entry.format = strings["format"];
    entry.ok = bools["ok"];
    entry.seconds = numbers.count("seconds") ? numbers["seconds"] : 0.0;
    entry.flops = numbers.count("flops") ? numbers["flops"] : 0.0;
    entry.bytes = numbers.count("bytes") ? numbers["bytes"] : 0.0;
    entry.attempts =
        numbers.count("attempts") ? static_cast<int>(numbers["attempts"]) : 0;
    entry.error = strings.count("error") ? strings["error"] : "";
    entry.failure_class = strings.count("class") ? strings["class"] : "";
    entry.variant = strings.count("variant") ? strings["variant"] : "";
    entry.obs_flops = numbers.count("obs_flops") ? numbers["obs_flops"] : 0.0;
    entry.obs_bytes = numbers.count("obs_bytes") ? numbers["obs_bytes"] : 0.0;
    entry.mem_peak = numbers.count("mem_peak") ? numbers["mem_peak"] : 0.0;
    entry.partitions_done =
        numbers.count("partitions_done")
            ? static_cast<int>(numbers["partitions_done"])
            : 0;
    entry.partitions_total =
        numbers.count("partitions_total")
            ? static_cast<int>(numbers["partitions_total"])
            : 0;
    entry.shard = strings.count("shard") ? strings["shard"] : "";
    return true;
}

RunJournal::RunJournal(std::string path)
    : path_(std::move(path)), fsync_batch_(static_cast<int>(
          env_long("PASTA_JOURNAL_FSYNC", 1, 0, 1000000)))
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path parent = fs::path(path_).parent_path();
    if (!parent.empty())
        fs::create_directories(parent, ec);

    // Replay with manual line splitting so the byte offset of the last
    // intact line is known: a torn final line (no terminating newline,
    // or unparsable — the SIGKILL-mid-append case) is *truncated off*
    // so the resumed run appends from a clean line boundary.
    std::string text;
    {
        std::ifstream in(path_, std::ios::binary);
        if (!in.good())
            return;  // fresh journal
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    std::size_t line_no = 0;
    std::size_t torn = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        if (!terminated)
            nl = text.size();
        const std::string line = text.substr(pos, nl - pos);
        const std::size_t line_start = pos;
        pos = terminated ? nl + 1 : text.size();
        ++line_no;
        if (line.empty())
            continue;
        JournalEntry entry;
        const bool parsed = parse_json_line(line, entry);
        if (parsed && terminated) {
            entries_[key(entry.tensor_id, entry.kernel, entry.format,
                         entry.shard)] = entry;
            continue;
        }
        if (pos >= text.size()) {
            // Torn final line: drop it from the file so the next append
            // starts a fresh line instead of gluing onto the fragment.
            PASTA_LOG_WARN << "journal " << path_
                           << ": truncating torn final line " << line_no
                           << " (" << text.size() - line_start
                           << " byte(s) from a killed writer)";
            fs::resize_file(path_, line_start, ec);
            if (ec)
                PASTA_LOG_WARN << "journal " << path_
                               << ": truncation failed: " << ec.message();
            else
                fsutil::fsync_path(path_);
            break;
        }
        ++torn;
        PASTA_LOG_WARN << "journal " << path_ << ": skipping "
                       << "unparsable line " << line_no
                       << " (torn write from a killed run?)";
    }
    if (!entries_.empty()) {
        PASTA_LOG_INFO << "journal " << path_ << ": replayed "
                       << entries_.size() << " trial(s)"
                       << (torn ? " (torn lines skipped)" : "");
    }
}

RunJournal::RunJournal(RunJournal&& other) noexcept
    : path_(std::move(other.path_)),
      entries_(std::move(other.entries_)),
      fd_(other.fd_),
      fsync_batch_(other.fsync_batch_),
      unsynced_(other.unsynced_)
{
    other.fd_ = -1;
    other.path_.clear();
    other.unsynced_ = 0;
}

RunJournal&
RunJournal::operator=(RunJournal&& other) noexcept
{
    if (this != &other) {
        close_fd();
        path_ = std::move(other.path_);
        entries_ = std::move(other.entries_);
        fd_ = other.fd_;
        fsync_batch_ = other.fsync_batch_;
        unsynced_ = other.unsynced_;
        other.fd_ = -1;
        other.path_.clear();
        other.unsynced_ = 0;
    }
    return *this;
}

RunJournal::~RunJournal() { close_fd(); }

void
RunJournal::close_fd()
{
    if (fd_ >= 0) {
        if (unsynced_ > 0)
            fsutil::fsync_fd(fd_);
        ::close(fd_);
        fd_ = -1;
        unsynced_ = 0;
    }
}

std::string
RunJournal::key(const std::string& tensor_id, const std::string& kernel,
                const std::string& format, const std::string& shard)
{
    return tensor_id + "\x1f" + kernel + "\x1f" + format + "\x1f" + shard;
}

const JournalEntry*
RunJournal::find(const std::string& tensor_id, const std::string& kernel,
                 const std::string& format,
                 const std::string& shard) const
{
    auto it = entries_.find(key(tensor_id, kernel, format, shard));
    return it == entries_.end() ? nullptr : &it->second;
}

bool
RunJournal::has_ok(const std::string& tensor_id, const std::string& kernel,
                   const std::string& format,
                   const std::string& shard) const
{
    const JournalEntry* entry = find(tensor_id, kernel, format, shard);
    return entry && entry->ok;
}

void
RunJournal::append(const JournalEntry& entry)
{
    if (!enabled())
        return;
    entries_[key(entry.tensor_id, entry.kernel, entry.format,
                 entry.shard)] = entry;
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            PASTA_LOG_WARN << "journal " << path_ << ": cannot append";
            return;
        }
    }
    // One write() per line: O_APPEND makes the line land atomically at
    // the end even when several shard writers share a file by mistake.
    const std::string line = to_json_line(entry) + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(fd_, line.data() + off,
                                  line.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            PASTA_LOG_WARN << "journal " << path_ << ": append failed";
            return;
        }
        off += static_cast<std::size_t>(n);
    }
    ++unsynced_;
    if (fsync_batch_ > 0 && unsynced_ >= fsync_batch_) {
        fsutil::fsync_fd(fd_);
        unsynced_ = 0;
    }
}

void
RunJournal::flush()
{
    if (fd_ >= 0 && unsynced_ > 0) {
        fsutil::fsync_fd(fd_);
        unsynced_ = 0;
    }
}

}  // namespace pasta::harness
