#include "obs/metrics.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "obs/trace.hpp"

namespace pasta::obs::metrics {

// ---------------------------------------------------------------------------
// Histogram

/// One shard: a dense atomic bucket array plus moments.  ~15 KiB; shards
/// are installed lazily so idle histograms cost one pointer array.
struct Histogram::Shard {
    std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
};

Histogram::Histogram(std::string name) : name_(std::move(name)) {}

Histogram::~Histogram()
{
    for (auto& slot : shards_)
        delete slot.load(std::memory_order_acquire);
}

Histogram::Shard&
Histogram::shard_for_thread()
{
    const std::size_t idx =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
    Shard* shard = shards_[idx].load(std::memory_order_acquire);
    if (shard == nullptr) {
        Shard* fresh = new Shard();
        if (shards_[idx].compare_exchange_strong(shard, fresh,
                                                 std::memory_order_acq_rel))
            return *fresh;
        delete fresh;  // another thread won the install race
    }
    return *shard;
}

void
Histogram::record(std::uint64_t v)
{
    Shard& s = shard_for_thread();
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = s.min.load(std::memory_order_relaxed);
    while (v < cur &&
           !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = s.max.load(std::memory_order_relaxed);
    while (v > cur &&
           !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

HistSample
Histogram::snapshot() const
{
    std::vector<std::uint64_t> dense(kHistBuckets, 0);
    HistSample out;
    std::uint64_t lo = ~std::uint64_t{0};
    for (const auto& slot : shards_) {
        const Shard* s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        for (std::size_t i = 0; i < kHistBuckets; ++i)
            dense[i] += s->buckets[i].load(std::memory_order_relaxed);
        out.count += s->count.load(std::memory_order_relaxed);
        out.sum += s->sum.load(std::memory_order_relaxed);
        const std::uint64_t smin = s->min.load(std::memory_order_relaxed);
        if (smin < lo)
            lo = smin;
        const std::uint64_t smax = s->max.load(std::memory_order_relaxed);
        if (smax > out.max)
            out.max = smax;
    }
    out.min = out.count ? lo : 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i)
        if (dense[i])
            out.buckets.emplace_back(static_cast<std::uint32_t>(i), dense[i]);
    return out;
}

void
Histogram::reset()
{
    for (auto& slot : shards_) {
        Shard* s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        for (auto& b : s->buckets)
            b.store(0, std::memory_order_relaxed);
        s->count.store(0, std::memory_order_relaxed);
        s->sum.store(0, std::memory_order_relaxed);
        s->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
        s->max.store(0, std::memory_order_relaxed);
    }
}

double
HistSample::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t cum = 0;
    for (const auto& [idx, c] : buckets) {
        cum += c;
        if (cum >= rank) {
            const std::uint64_t lower = bucket_lower(idx);
            const std::uint64_t width = bucket_width(idx);
            return width == 1 ? static_cast<double>(lower)
                              : static_cast<double>(lower) +
                                    static_cast<double>(width) / 2.0;
        }
    }
    return static_cast<double>(max);  // unreachable with consistent counts
}

void
HistSample::merge_from(const HistSample& other)
{
    if (other.count == 0)
        return;
    if (count == 0 || other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    count += other.count;
    sum += other.sum;
    // Merge two sorted sparse bucket lists.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < buckets.size() || b < other.buckets.size()) {
        if (b >= other.buckets.size() ||
            (a < buckets.size() && buckets[a].first < other.buckets[b].first))
            merged.push_back(buckets[a++]);
        else if (a >= buckets.size() ||
                 other.buckets[b].first < buckets[a].first)
            merged.push_back(other.buckets[b++]);
        else {
            merged.emplace_back(buckets[a].first,
                                buckets[a].second + other.buckets[b].second);
            ++a;
            ++b;
        }
    }
    buckets = std::move(merged);
}

// ---------------------------------------------------------------------------
// Registry

namespace {

std::mutex g_metrics_mutex;

/// A registry cell on a cache line of its own: handles write cells from
/// every worker thread, so no two cells (and no other data) share a line.
template <typename T>
struct alignas(64) Cell : std::atomic<T> {
    using std::atomic<T>::atomic;
};

// unique_ptr values keep addresses stable across map growth, so handles
// (Counter, Gauge, Histogram&) survive registry mutation.
std::map<std::string, std::unique_ptr<Cell<std::uint64_t>>>&
counter_map()
{
    static std::map<std::string, std::unique_ptr<Cell<std::uint64_t>>>
        m;
    return m;
}

std::map<std::string, std::unique_ptr<Cell<double>>>&
gauge_map()
{
    static std::map<std::string, std::unique_ptr<Cell<double>>> m;
    return m;
}

std::map<std::string, std::unique_ptr<Histogram>>&
hist_map()
{
    static std::map<std::string, std::unique_ptr<Histogram>> m;
    return m;
}

/// Last decided label per key: a pointer to the "<key>=<value>" key
/// string of counter_map() (map nodes never move), or null.
std::map<std::string, std::unique_ptr<Cell<const std::string*>>>&
last_label_map()
{
    static std::map<std::string,
                    std::unique_ptr<Cell<const std::string*>>>
        m;
    return m;
}

/// The counter's map entry; the caller holds g_metrics_mutex.
std::pair<const std::string, std::unique_ptr<Cell<std::uint64_t>>>&
counter_entry_locked(const std::string& name)
{
    auto& entry = *counter_map().try_emplace(name).first;
    if (!entry.second)
        entry.second = std::make_unique<Cell<std::uint64_t>>(0);
    return entry;
}

std::atomic<std::uint64_t>&
counter_cell(const std::string& name)
{
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    return *counter_entry_locked(name).second;
}

std::atomic<double>&
gauge_cell(const std::string& name)
{
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    auto& slot = gauge_map()[name];
    if (!slot)
        slot = std::make_unique<Cell<double>>(0.0);
    return *slot;
}

}  // namespace

Histogram&
histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    auto& slot = hist_map()[name];
    if (!slot)
        slot = std::make_unique<Histogram>(name);
    return *slot;
}

Counter::Counter(const std::string& name) : cell_(&counter_cell(name)) {}

Gauge::Gauge(const std::string& name) : cell_(&gauge_cell(name)) {}

LabelCounter::LabelCounter(const std::string& key, const std::string& value)
{
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    auto& entry = counter_entry_locked(label_name(key, value));
    cell_ = entry.second.get();
    name_ = &entry.first;
    auto& last = last_label_map()[key];
    if (!last)
        last = std::make_unique<Cell<const std::string*>>(nullptr);
    last_ = last.get();
}

std::string
last_label(const std::string& key)
{
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    const auto it = last_label_map().find(key);
    const std::string* name =
        it == last_label_map().end()
            ? nullptr
            : it->second->load(std::memory_order_relaxed);
    return name ? name->substr(key.size() + 1) : std::string();
}

MetricsSnapshot
snapshot_metrics()
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    for (const auto& [name, cell] : counter_map())
        snap.counters[name] = cell->load(std::memory_order_relaxed);
    for (const auto& [name, cell] : gauge_map())
        snap.gauges[name] = cell->load(std::memory_order_relaxed);
    for (const auto& [name, hist] : hist_map())
        snap.hists[name] = hist->snapshot();
    return snap;
}

void
reset_metrics()
{
    std::lock_guard<std::mutex> lock(g_metrics_mutex);
    for (auto& [name, cell] : counter_map())
        cell->store(0, std::memory_order_relaxed);
    for (auto& [name, cell] : gauge_map())
        cell->store(0.0, std::memory_order_relaxed);
    for (auto& [name, hist] : hist_map())
        hist->reset();
    for (auto& [key, last] : last_label_map())
        last->store(nullptr, std::memory_order_relaxed);
}

std::uint64_t
MetricsSnapshot::counter(const std::string& name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
MetricsSnapshot::gauge(const std::string& name) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
}

const HistSample*
MetricsSnapshot::hist(const std::string& name) const
{
    auto it = hists.find(name);
    return it == hists.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// JSONL serialization

namespace {

void
append_double(std::string& out, double v)
{
    if (!std::isfinite(v))
        v = 0.0;  // JSON has no inf/nan; a zeroed gauge beats a torn line
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void
append_u64(std::string& out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

}  // namespace

std::string
snapshot_to_json(const MetricsSnapshot& snap)
{
    std::string out;
    out.reserve(1024);
    out += "{\"ts\":";
    append_double(out, snap.ts);
    out += ",\"seq\":";
    append_u64(out, snap.seq);
    out += ",\"source\":\"";
    json::append_escaped(out, snap.source);
    out += "\",\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : snap.counters) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        json::append_escaped(out, name);
        out += "\":";
        append_u64(out, v);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : snap.gauges) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        json::append_escaped(out, name);
        out += "\":";
        append_double(out, v);
    }
    out += "},\"hists\":{";
    first = true;
    for (const auto& [name, h] : snap.hists) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        json::append_escaped(out, name);
        out += "\":{\"count\":";
        append_u64(out, h.count);
        out += ",\"sum\":";
        append_u64(out, h.sum);
        out += ",\"min\":";
        append_u64(out, h.min);
        out += ",\"max\":";
        append_u64(out, h.max);
        out += ",\"buckets\":[";
        bool bfirst = true;
        for (const auto& [idx, c] : h.buckets) {
            if (!bfirst)
                out += ',';
            bfirst = false;
            out += '[';
            append_u64(out, idx);
            out += ',';
            append_u64(out, c);
            out += ']';
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

// ---------------------------------------------------------------------------
// JSONL parsing: a minimal recursive-descent parser.  The journal's flat
// key:value parser cannot represent the nested hists, hence this one.
// Unknown keys are skipped so newer writers stay readable.

namespace {

struct Cursor {
    const char* p;
    const char* end;

    bool eof() const { return p >= end; }
    char peek() const { return eof() ? '\0' : *p; }
    void ws()
    {
        while (!eof() && (*p == ' ' || *p == '\t' || *p == '\r' ||
                          *p == '\n'))
            ++p;
    }
    bool consume(char c)
    {
        ws();
        if (peek() != c)
            return false;
        ++p;
        return true;
    }
};

bool skip_value(Cursor& c);

bool
parse_string(Cursor& c, std::string& out)
{
    c.ws();
    return json::parse_string(c.p, c.end, out);
}

/// Lexes one number token (json number grammar, loosely) into `tok`.
bool
parse_number_token(Cursor& c, std::string& tok)
{
    c.ws();
    tok.clear();
    if (c.peek() == '-') {
        tok += '-';
        ++c.p;
    }
    if (!std::isdigit(static_cast<unsigned char>(c.peek())))
        return false;
    while (!c.eof() &&
           (std::isdigit(static_cast<unsigned char>(*c.p)) || *c.p == '.' ||
            *c.p == 'e' || *c.p == 'E' || *c.p == '+' || *c.p == '-'))
        tok += *c.p++;
    return true;
}

bool
parse_double(Cursor& c, double& out)
{
    std::string tok;
    if (!parse_number_token(c, tok))
        return false;
    char* end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
}

bool
parse_u64(Cursor& c, std::uint64_t& out)
{
    std::string tok;
    if (!parse_number_token(c, tok))
        return false;
    if (tok.find_first_of(".eE-") != std::string::npos) {
        // Tolerate a float-formatted count (foreign writer): truncate.
        char* end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || d < 0)
            return false;
        out = static_cast<std::uint64_t>(d);
        return true;
    }
    char* end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return end == tok.c_str() + tok.size();
}

bool
skip_object(Cursor& c)
{
    if (!c.consume('{'))
        return false;
    if (c.consume('}'))
        return true;
    do {
        std::string key;
        if (!parse_string(c, key) || !c.consume(':') || !skip_value(c))
            return false;
    } while (c.consume(','));
    return c.consume('}');
}

bool
skip_array(Cursor& c)
{
    if (!c.consume('['))
        return false;
    if (c.consume(']'))
        return true;
    do {
        if (!skip_value(c))
            return false;
    } while (c.consume(','));
    return c.consume(']');
}

bool
skip_value(Cursor& c)
{
    c.ws();
    const char ch = c.peek();
    if (ch == '{')
        return skip_object(c);
    if (ch == '[')
        return skip_array(c);
    if (ch == '"') {
        std::string s;
        return parse_string(c, s);
    }
    if (ch == 't' || ch == 'f' || ch == 'n') {
        const char* words[] = {"true", "false", "null"};
        for (const char* w : words) {
            const std::size_t len = std::strlen(w);
            if (static_cast<std::size_t>(c.end - c.p) >= len &&
                std::strncmp(c.p, w, len) == 0) {
                c.p += len;
                return true;
            }
        }
        return false;
    }
    double d;
    return parse_double(c, d);
}

bool
parse_counter_obj(Cursor& c, std::map<std::string, std::uint64_t>& out)
{
    if (!c.consume('{'))
        return false;
    if (c.consume('}'))
        return true;
    do {
        std::string key;
        std::uint64_t v;
        if (!parse_string(c, key) || !c.consume(':') || !parse_u64(c, v))
            return false;
        out[key] = v;
    } while (c.consume(','));
    return c.consume('}');
}

bool
parse_gauge_obj(Cursor& c, std::map<std::string, double>& out)
{
    if (!c.consume('{'))
        return false;
    if (c.consume('}'))
        return true;
    do {
        std::string key;
        double v;
        if (!parse_string(c, key) || !c.consume(':') || !parse_double(c, v))
            return false;
        out[key] = v;
    } while (c.consume(','));
    return c.consume('}');
}

bool
parse_hist_obj(Cursor& c, HistSample& out)
{
    if (!c.consume('{'))
        return false;
    if (c.consume('}'))
        return true;
    do {
        std::string key;
        if (!parse_string(c, key) || !c.consume(':'))
            return false;
        if (key == "count") {
            if (!parse_u64(c, out.count))
                return false;
        } else if (key == "sum") {
            if (!parse_u64(c, out.sum))
                return false;
        } else if (key == "min") {
            if (!parse_u64(c, out.min))
                return false;
        } else if (key == "max") {
            if (!parse_u64(c, out.max))
                return false;
        } else if (key == "buckets") {
            if (!c.consume('['))
                return false;
            if (!c.consume(']')) {
                do {
                    std::uint64_t idx;
                    std::uint64_t cnt;
                    if (!c.consume('[') || !parse_u64(c, idx) ||
                        !c.consume(',') || !parse_u64(c, cnt) ||
                        !c.consume(']'))
                        return false;
                    if (idx >= kHistBuckets)
                        return false;
                    out.buckets.emplace_back(
                        static_cast<std::uint32_t>(idx), cnt);
                } while (c.consume(','));
                if (!c.consume(']'))
                    return false;
            }
        } else {
            if (!skip_value(c))
                return false;
        }
    } while (c.consume(','));
    return c.consume('}');
}

bool
parse_hists_obj(Cursor& c, std::map<std::string, HistSample>& out)
{
    if (!c.consume('{'))
        return false;
    if (c.consume('}'))
        return true;
    do {
        std::string key;
        HistSample h;
        if (!parse_string(c, key) || !c.consume(':') ||
            !parse_hist_obj(c, h))
            return false;
        out[key] = std::move(h);
    } while (c.consume(','));
    return c.consume('}');
}

}  // namespace

bool
parse_snapshot_line(const std::string& line, MetricsSnapshot& out)
{
    Cursor c{line.data(), line.data() + line.size()};
    MetricsSnapshot snap;
    if (!c.consume('{'))
        return false;
    if (!c.consume('}')) {
        do {
            std::string key;
            if (!parse_string(c, key) || !c.consume(':'))
                return false;
            bool ok = true;
            if (key == "ts")
                ok = parse_double(c, snap.ts);
            else if (key == "seq")
                ok = parse_u64(c, snap.seq);
            else if (key == "source")
                ok = parse_string(c, snap.source);
            else if (key == "counters")
                ok = parse_counter_obj(c, snap.counters);
            else if (key == "gauges")
                ok = parse_gauge_obj(c, snap.gauges);
            else if (key == "hists")
                ok = parse_hists_obj(c, snap.hists);
            else
                ok = skip_value(c);
            if (!ok)
                return false;
        } while (c.consume(','));
        if (!c.consume('}'))
            return false;
    }
    c.ws();
    if (!c.eof())
        return false;
    out = std::move(snap);
    return true;
}

bool
load_last_snapshot(const std::string& path, MetricsSnapshot& out)
{
    std::ifstream in(path);
    if (!in.good())
        return false;
    bool found = false;
    std::string line;
    MetricsSnapshot snap;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        MetricsSnapshot parsed;
        if (parse_snapshot_line(line, parsed)) {
            snap = std::move(parsed);
            found = true;
        }
        // Unparseable lines (torn tail of a SIGKILL'd writer) are
        // skipped; the last complete heartbeat wins.
    }
    if (found)
        out = std::move(snap);
    return found;
}

MetricsSnapshot
merge_snapshots(const std::vector<MetricsSnapshot>& snaps,
                const std::string& source)
{
    MetricsSnapshot out;
    out.source = source;
    for (const auto& s : snaps) {
        if (s.ts > out.ts)
            out.ts = s.ts;
        if (s.seq > out.seq)
            out.seq = s.seq;
        for (const auto& [name, v] : s.counters)
            out.counters[name] += v;
        for (const auto& [name, v] : s.gauges) {
            auto [it, inserted] = out.gauges.emplace(name, v);
            if (!inserted && v > it->second)
                it->second = v;
        }
        for (const auto& [name, h] : s.hists)
            out.hists[name].merge_from(h);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Exporter

ExporterOptions
ExporterOptions::from_env()
{
    ExporterOptions opts;
    const char* s = std::getenv("PASTA_METRICS");
    if (!s || !*s)
        return opts;
    const std::string spec(s);
    const std::size_t comma = spec.rfind(',');
    if (comma == std::string::npos) {
        opts.path = spec;
        return opts;
    }
    opts.path = spec.substr(0, comma);
    const std::string ms = spec.substr(comma + 1);
    char* end = nullptr;
    const long v = std::strtol(ms.c_str(), &end, 10);
    PASTA_CHECK_MSG(end == ms.c_str() + ms.size() && *ms.c_str() != '\0' &&
                        v >= 1 && v <= 3600000,
                    "PASTA_METRICS='" << spec
                                      << "': interval_ms must be an integer "
                                         "in [1, 3600000]");
    PASTA_CHECK_MSG(!opts.path.empty(),
                    "PASTA_METRICS='" << spec << "': empty path");
    opts.interval_s = static_cast<double>(v) / 1000.0;
    return opts;
}

namespace {

double
wall_now_s()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// Exporter state: one background thread per process, guarded by a
/// start/stop mutex.  The heartbeat fd stays open across snapshots; each
/// snapshot is one O_APPEND write (atomic enough for concurrent
/// appenders sharing a path) followed by one fsync.
struct ExporterState {
    std::thread thread;
    std::mutex mutex;  // protects stop + wakes the ticker
    std::condition_variable cv;
    bool stop = false;
    int fd = -1;
    std::uint64_t seq = 0;
    ExporterOptions opts;
    std::string source;

    /// Refreshes the pulled gauges and appends one snapshot line.
    void emit()
    {
        static const Gauge reserved("mem.reserved");
        static const Gauge peak("mem.peak");
        static const Gauge dropped("obs.spans_dropped");
        const auto& gov = membudget::MemGovernor::instance();
        reserved.set(static_cast<double>(gov.reserved()));
        peak.set(static_cast<double>(gov.peak()));
        dropped.set(static_cast<double>(obs::spans_dropped()));
        MetricsSnapshot snap = snapshot_metrics();
        snap.ts = wall_now_s();
        snap.seq = ++seq;  // 1-based: "seq 0" stays "never exported"
        snap.source = source;
        std::string line = snapshot_to_json(snap);
        line += '\n';
        ssize_t off = 0;
        while (off < static_cast<ssize_t>(line.size())) {
            const ssize_t n = ::write(fd, line.data() + off,
                                      line.size() - static_cast<size_t>(off));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                PASTA_LOG_WARN << "metrics exporter: write to "
                               << opts.path << " failed: "
                               << std::strerror(errno);
                return;
            }
            off += n;
        }
        ::fsync(fd);
    }

    void run()
    {
        emit();  // immediate first heartbeat: arm-to-first-line is ~0
        std::unique_lock<std::mutex> lock(mutex);
        const auto interval = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.interval_s));
        while (!stop) {
            cv.wait_for(lock, interval, [this] { return stop; });
            if (stop)
                break;
            lock.unlock();
            emit();
            lock.lock();
        }
    }
};

std::mutex g_exporter_mutex;
std::unique_ptr<ExporterState> g_exporter;

}  // namespace

bool
start_exporter(const ExporterOptions& opts, const std::string& source)
{
    stop_exporter();
    if (!opts.armed())
        return false;
    const int fd = ::open(opts.path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        PASTA_LOG_WARN << "metrics exporter: cannot open " << opts.path
                       << ": " << std::strerror(errno);
        return false;
    }
    std::lock_guard<std::mutex> lock(g_exporter_mutex);
    auto state = std::make_unique<ExporterState>();
    state->fd = fd;
    state->opts = opts;
    state->source = source;
    ExporterState* raw = state.get();
    state->thread = std::thread([raw] { raw->run(); });
    g_exporter = std::move(state);
    return true;
}

bool
arm_from_env(const std::string& source)
{
    const ExporterOptions opts = ExporterOptions::from_env();
    if (!opts.armed())
        return false;
    return start_exporter(opts, source);
}

void
stop_exporter()
{
    std::unique_ptr<ExporterState> state;
    {
        std::lock_guard<std::mutex> lock(g_exporter_mutex);
        state = std::move(g_exporter);
    }
    if (!state)
        return;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->stop = true;
    }
    state->cv.notify_all();
    state->thread.join();
    state->emit();  // final snapshot: the run's authoritative totals
    ::close(state->fd);
}

bool
exporter_running()
{
    std::lock_guard<std::mutex> lock(g_exporter_mutex);
    return g_exporter != nullptr;
}

}  // namespace pasta::obs::metrics
