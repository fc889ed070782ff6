/**
 * @file
 * Deterministic checkpoint/restore of simulator state (DESIGN.md §9).
 *
 * A checkpoint is a single file holding the complete architectural
 * state of a simulation at an inter-cycle boundary: every Clocked
 * component's registers, queues and statistics, the kernel's clock and
 * scheduled wakeups, and the functional memory image. The format is
 * self-describing and versioned so that a stale, truncated or
 * mismatched file fails loudly instead of silently mis-restoring:
 *
 *   file   := magic[8] version:u32 chunk*
 *   chunk  := nameLen:u32 name[nameLen] payloadLen:u64 payload
 *
 * All integers are little-endian and fixed-width; doubles are
 * bit-cast to u64. Components write one chunk each (named by their
 * instance name); the reader asserts every chunk name and every chunk
 * length, so any drift between the saving and restoring topology — a
 * different config, an added field, a reordered component — is a
 * fatal() with a precise message, never a corrupted resume.
 *
 * Every checkpointed type names its state once, in a public
 *
 *   template <class Ar> void fields(Ar &ar);
 *
 * that Serializer (saving) and Deserializer (loading) both walk. The
 * archive knows a closed set of values:
 *
 *   - integral, enum and bool values, stored as u64 (loading a value
 *     that does not fit the field's type is fatal); double as its
 *     bits; std::string as its length and bytes;
 *   - std::array (its elements), std::pair, std::optional (a presence
 *     flag, then the value), and any type with a fields() of its own
 *     (statistics, Rng, PhysMem, request messages, components);
 *   - containers, in one of two forms: fixed() for config-sized ones
 *     (the length is written and checked on load) and list() for
 *     variable ones (the length is written; loading clears and
 *     refills). list() writes unordered maps sorted by key and
 *     priority queues in pop order, so a given state always produces
 *     the same bytes.
 *
 * Ar::loading is a constant expression, so restore-only work (range
 * checks, callback re-resolution, cache invalidation) sits beside its
 * fields under `if constexpr`. A Clocked component's save()/restore()
 * overrides just hand `*this` to the archive.
 *
 * Determinism argument: serialization only happens between cycles
 * (never mid-tick), where the kernel's transient state (the event
 * kernel's due mask) is provably empty, and the
 * wakeup caches need no serialization at all because nextWakeup() is
 * a pure function of component state and the kernel re-polls every
 * component when a run (re)starts. A restored run is therefore
 * bit-identical — cycle counts and statistics — to the uninterrupted
 * one, under either kernel.
 */

#ifndef HWGC_SIM_CHECKPOINT_H
#define HWGC_SIM_CHECKPOINT_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "sim/logging.h"

namespace hwgc::checkpoint
{

/** Format magic and version; bump the version on any layout change. */
inline constexpr char magic[8] = {'H', 'W', 'G', 'C',
                                  'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t formatVersion = 3;

namespace detail
{

template <class T> inline constexpr bool isArray = false;
template <class T, std::size_t N>
inline constexpr bool isArray<std::array<T, N>> = true;

template <class T> inline constexpr bool isPair = false;
template <class A, class B>
inline constexpr bool isPair<std::pair<A, B>> = true;

template <class T> inline constexpr bool isOptional = false;
template <class T>
inline constexpr bool isOptional<std::optional<T>> = true;

template <class T> inline constexpr bool isPriorityQueue = false;
template <class T, class C, class Cmp>
inline constexpr bool isPriorityQueue<std::priority_queue<T, C, Cmp>> =
    true;

template <class C>
concept Map = requires { typename C::mapped_type; };

} // namespace detail

/** Serializes state into the chunked checkpoint image. */
class Serializer
{
  public:
    static constexpr bool loading = false;

    Serializer()
    {
        buf_.append(magic, sizeof(magic));
        rawU32(formatVersion);
    }

    /** Opens a named chunk; every put must happen inside one. */
    void
    beginChunk(const std::string &name)
    {
        panic_if(chunkStart_ != npos, "checkpoint: nested chunk '%s'",
                 name.c_str());
        rawU32(std::uint32_t(name.size()));
        buf_.append(name);
        chunkStart_ = buf_.size();
        rawU64(0); // Placeholder, patched by endChunk().
    }

    /** Closes the current chunk, patching its payload length. */
    void
    endChunk()
    {
        panic_if(chunkStart_ == npos,
                 "checkpoint: endChunk() outside a chunk");
        const std::uint64_t len = buf_.size() - chunkStart_ - 8;
        for (unsigned i = 0; i < 8; ++i) {
            buf_[chunkStart_ + i] = char((len >> (8 * i)) & 0xff);
        }
        chunkStart_ = npos;
    }

    /** Writes each of @p vs (see the value set in the file comment). */
    template <class... Ts>
    void
    operator()(const Ts &...vs)
    {
        (put(vs), ...);
    }

    /** Writes @p vs as the whole payload of chunk @p name. */
    template <class... Ts>
    void
    chunk(const std::string &name, const Ts &...vs)
    {
        beginChunk(name);
        (put(vs), ...);
        endChunk();
    }

    /** A config-sized container: its length, then every element. */
    template <class C>
    void
    fixed(C &c)
    {
        fixed(c, [this](auto &e) { put(e); });
    }

    template <class C, class F>
    void
    fixed(C &c, F &&each)
    {
        putU64(c.size());
        for (auto &e : c) {
            each(e);
        }
    }

    /**
     * A variable container: its length, then every element in a
     * canonical order: unordered maps sorted by key, priority queues
     * in pop order.
     */
    template <class C>
    void
    list(C &c)
    {
        list(c, [this](auto &e) { put(e); });
    }

    template <class C, class F>
    void
    list(C &c, F &&each)
    {
        putU64(c.size());
        if constexpr (detail::isPriorityQueue<std::remove_cv_t<C>>) {
            auto copy = c;
            while (!copy.empty()) {
                auto e = copy.top();
                each(e);
                copy.pop();
            }
        } else if constexpr (detail::Map<C>) {
            std::vector<decltype(&*c.begin())> sorted;
            for (auto &e : c) {
                sorted.push_back(&e);
            }
            std::sort(sorted.begin(), sorted.end(),
                      [](auto *a, auto *b) { return a->first < b->first; });
            for (auto *e : sorted) {
                each(*e);
            }
        } else {
            for (auto &e : c) {
                each(e);
            }
        }
    }

    /** A byte blob: its length, then the raw bytes. */
    void
    bytes(const void *data, std::size_t len)
    {
        putU64(len);
        buf_.append(static_cast<const char *>(data), len);
    }

    /** The complete file image (header + all closed chunks). */
    const std::string &
    image() const
    {
        panic_if(chunkStart_ != npos,
                 "checkpoint: image() with an open chunk");
        return buf_;
    }

    /**
     * Writes the image to @p path. Returns false (with a warning)
     * on I/O failure — the crash-dump path must not fatal() again
     * while already handling a fatal error.
     */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) {
            warn("checkpoint: cannot open '%s' for writing",
                 path.c_str());
            return false;
        }
        const std::string &data = image();
        const std::size_t written =
            std::fwrite(data.data(), 1, data.size(), f);
        std::fclose(f);
        if (written != data.size()) {
            warn("checkpoint: short write to '%s'", path.c_str());
            return false;
        }
        return true;
    }

  private:
    static constexpr std::size_t npos = std::size_t(-1);

    void
    putU64(std::uint64_t v)
    {
        panic_if(chunkStart_ == npos,
                 "checkpoint: put outside a chunk");
        rawU64(v);
    }

    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
            putU64(std::uint64_t(v));
        } else if constexpr (std::is_same_v<T, double>) {
            putU64(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<T, std::string>) {
            bytes(v.data(), v.size());
        } else if constexpr (detail::isArray<T>) {
            for (const auto &e : v) {
                put(e);
            }
        } else if constexpr (detail::isPair<T>) {
            put(v.first);
            put(v.second);
        } else if constexpr (detail::isOptional<T>) {
            put(v.has_value());
            if (v) {
                put(*v);
            }
        } else if constexpr (requires(T &m) { m.fields(*this); }) {
            // fields() is one non-const list shared with loading;
            // saving only reads through it.
            const_cast<T &>(v).fields(*this);
        } else {
            v.save(*this); // A Clocked component, dispatched virtually.
        }
    }

    void
    rawU32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i) {
            buf_.push_back(char((v >> (8 * i)) & 0xff));
        }
    }

    void
    rawU64(std::uint64_t v)
    {
        char bytes[8];
        for (unsigned i = 0; i < 8; ++i) {
            bytes[i] = char((v >> (8 * i)) & 0xff);
        }
        buf_.append(bytes, sizeof(bytes));
    }

    std::string buf_;
    std::size_t chunkStart_ = npos;
};

/**
 * Reads a checkpoint image back. Every accessor validates bounds and
 * every structural mismatch (magic, version, chunk name, chunk
 * length, container size, a value too wide for its field) is a
 * fatal() naming the offending file — a corrupt checkpoint is
 * rejected, never silently mis-restored.
 */
class Deserializer
{
  public:
    static constexpr bool loading = true;

    /** Parses @p data as a checkpoint image (header validated). */
    explicit Deserializer(std::string data, std::string origin = "<memory>")
        : buf_(std::move(data)), origin_(std::move(origin))
    {
        fatal_if(buf_.size() < sizeof(magic) + 4,
                 "checkpoint '%s': truncated header (%zu bytes)",
                 origin_.c_str(), buf_.size());
        fatal_if(std::memcmp(buf_.data(), magic, sizeof(magic)) != 0,
                 "checkpoint '%s': bad magic — not a checkpoint file",
                 origin_.c_str());
        pos_ = sizeof(magic);
        const std::uint32_t version = rawU32();
        fatal_if(version != formatVersion,
                 "checkpoint '%s': format version %u, expected %u",
                 origin_.c_str(), version, formatVersion);
    }

    /** Loads and parses @p path; fatal() if unreadable. */
    static Deserializer
    fromFile(const std::string &path)
    {
        return Deserializer(readFileOrDie(path), path);
    }

    /**
     * Opens the next chunk, asserting it is named @p expect. The
     * topology that wrote the file and the one restoring it must
     * agree on component names and order — a mismatch means a
     * different configuration and is fatal.
     */
    void
    beginChunk(const std::string &expect)
    {
        fatal_if(chunkEnd_ != npos,
                 "checkpoint '%s': beginChunk('%s') inside chunk",
                 origin_.c_str(), expect.c_str());
        fatal_if(atEnd(), "checkpoint '%s': expected chunk '%s' but "
                 "the file ends — truncated or mismatched topology",
                 origin_.c_str(), expect.c_str());
        const std::string name = chunkName();
        fatal_if(name != expect,
                 "checkpoint '%s': expected chunk '%s', found '%s' — "
                 "the saving and restoring configurations differ",
                 origin_.c_str(), expect.c_str(), name.c_str());
        const std::uint64_t len = rawU64();
        fatal_if(len > buf_.size() - pos_,
                 "checkpoint '%s': chunk '%s' claims %llu bytes but "
                 "only %zu remain — truncated file",
                 origin_.c_str(), name.c_str(),
                 (unsigned long long)len, buf_.size() - pos_);
        chunkEnd_ = pos_ + len;
        chunk_ = name;
    }

    /** Closes the current chunk; trailing unread bytes are fatal. */
    void
    endChunk()
    {
        fatal_if(chunkEnd_ == npos,
                 "checkpoint '%s': endChunk() outside a chunk",
                 origin_.c_str());
        fatal_if(pos_ != chunkEnd_,
                 "checkpoint '%s': %llu unread bytes at chunk end — "
                 "serialization layout mismatch", origin_.c_str(),
                 (unsigned long long)(chunkEnd_ - pos_));
        chunkEnd_ = npos;
    }

    /** Reads each of @p vs (see the value set in the file comment). */
    template <class... Ts>
    void
    operator()(Ts &...vs)
    {
        (get(vs), ...);
    }

    /** Reads @p vs as the whole payload of chunk @p name. */
    template <class... Ts>
    void
    chunk(const std::string &name, Ts &...vs)
    {
        beginChunk(name);
        (get(vs), ...);
        endChunk();
    }

    /** A config-sized container: the stored length must match. */
    template <class C>
    void
    fixed(C &c)
    {
        fixed(c, [this](auto &e) { get(e); });
    }

    template <class C, class F>
    void
    fixed(C &c, F &&each)
    {
        const std::uint64_t n = getU64();
        fatal_if(n != c.size(),
                 "checkpoint '%s': chunk '%s' holds %llu entries where "
                 "this configuration has %zu — configurations differ",
                 origin_.c_str(), chunk_.c_str(), (unsigned long long)n,
                 std::size_t(c.size()));
        for (auto &e : c) {
            each(e);
        }
    }

    /** A variable container: cleared, then refilled from the file. */
    template <class C>
    void
    list(C &c)
    {
        list(c, [this](auto &e) { get(e); });
    }

    template <class C, class F>
    void
    list(C &c, F &&each)
    {
        const std::uint64_t n = getU64();
        c = C{};
        for (std::uint64_t i = 0; i < n; ++i) {
            if constexpr (detail::isPriorityQueue<C>) {
                typename C::value_type e{};
                each(e);
                c.push(std::move(e));
            } else if constexpr (detail::Map<C>) {
                std::pair<typename C::key_type, typename C::mapped_type>
                    e{};
                each(e);
                fatal_if(!c.emplace(std::move(e)).second,
                         "checkpoint '%s': chunk '%s' repeats a map key",
                         origin_.c_str(), chunk_.c_str());
            } else {
                each(c.emplace_back());
            }
        }
    }

    /** Reads a byte blob; its recorded length must equal @p len. */
    void
    bytes(void *dst, std::size_t len)
    {
        const std::uint64_t stored = getU64();
        fatal_if(stored != len,
                 "checkpoint '%s': byte blob of %llu bytes where %zu "
                 "were expected", origin_.c_str(),
                 (unsigned long long)stored, len);
        fatal_if(len > chunkEnd_ - pos_,
                 "checkpoint '%s': blob runs past chunk end",
                 origin_.c_str());
        std::memcpy(dst, buf_.data() + pos_, len);
        pos_ += len;
    }

    bool atEnd() const { return pos_ >= buf_.size(); }

    const std::string &origin() const { return origin_; }

    /** Directory entry for post-mortem inspection (heap_inspector). */
    struct ChunkInfo
    {
        std::string name;
        std::uint64_t size = 0;
    };

    /** Lists every chunk in @p path without restoring anything. */
    static std::vector<ChunkInfo>
    listChunks(const std::string &path)
    {
        Deserializer des = fromFile(path);
        std::vector<ChunkInfo> chunks;
        while (!des.atEnd()) {
            ChunkInfo info;
            info.name = des.chunkName();
            info.size = des.rawU64();
            fatal_if(info.size > des.buf_.size() - des.pos_,
                     "checkpoint '%s': chunk '%s' truncated",
                     path.c_str(), info.name.c_str());
            des.pos_ += info.size;
            chunks.push_back(std::move(info));
        }
        return chunks;
    }

  private:
    static constexpr std::size_t npos = std::size_t(-1);

    std::uint64_t
    getU64()
    {
        fatal_if(chunkEnd_ == npos,
                 "checkpoint '%s': get outside a chunk",
                 origin_.c_str());
        fatal_if(pos_ + 8 > chunkEnd_,
                 "checkpoint '%s': read past chunk end",
                 origin_.c_str());
        return rawU64();
    }

    template <class T>
    void
    get(T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u;
            get(u);
            v = T(u);
        } else if constexpr (std::is_integral_v<T>) {
            v = fitted<T>(getU64());
        } else if constexpr (std::is_same_v<T, double>) {
            v = std::bit_cast<double>(getU64());
        } else if constexpr (std::is_same_v<T, std::string>) {
            const std::uint64_t len = getU64();
            fatal_if(len > chunkEnd_ - pos_,
                     "checkpoint '%s': string runs past chunk end",
                     origin_.c_str());
            v.assign(buf_, pos_, len);
            pos_ += len;
        } else if constexpr (detail::isArray<T>) {
            for (auto &e : v) {
                get(e);
            }
        } else if constexpr (detail::isPair<T>) {
            get(v.first);
            get(v.second);
        } else if constexpr (detail::isOptional<T>) {
            bool present;
            get(present);
            v.reset();
            if (present) {
                get(v.emplace());
            }
        } else if constexpr (requires { v.fields(*this); }) {
            v.fields(*this);
        } else {
            v.restore(*this); // A Clocked component, dispatched virtually.
        }
    }

    /** @p raw as a T; a value that does not fit is fatal. */
    template <class T>
    T
    fitted(std::uint64_t raw)
    {
        bool fits;
        if constexpr (std::is_same_v<T, bool>) {
            fits = raw <= 1;
        } else if constexpr (std::is_signed_v<T>) {
            fits = std::in_range<T>(std::int64_t(raw));
        } else {
            fits = std::in_range<T>(raw);
        }
        fatal_if(!fits,
                 "checkpoint '%s': chunk '%s' holds %#llx, which does not "
                 "fit its %zu-byte field — corrupt or mismatched file",
                 origin_.c_str(), chunk_.c_str(), (unsigned long long)raw,
                 sizeof(T));
        return T(raw);
    }

    static std::string
    readFileOrDie(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        fatal_if(f == nullptr, "checkpoint: cannot open '%s'",
                 path.c_str());
        std::string data;
        char block[65536];
        std::size_t n;
        while ((n = std::fread(block, 1, sizeof(block), f)) > 0) {
            data.append(block, n);
        }
        std::fclose(f);
        return data;
    }

    std::uint32_t
    rawU32()
    {
        fatal_if(pos_ + 4 > buf_.size(),
                 "checkpoint '%s': truncated file", origin_.c_str());
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i) {
            v |= std::uint32_t(std::uint8_t(buf_[pos_ + i])) << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t
    rawU64()
    {
        fatal_if(pos_ + 8 > buf_.size(),
                 "checkpoint '%s': truncated file", origin_.c_str());
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i) {
            v |= std::uint64_t(std::uint8_t(buf_[pos_ + i])) << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    std::string
    chunkName()
    {
        const std::uint32_t len = rawU32();
        fatal_if(pos_ + len > buf_.size(),
                 "checkpoint '%s': chunk name runs past end of file",
                 origin_.c_str());
        std::string name = buf_.substr(pos_, len);
        pos_ += len;
        return name;
    }

    std::string buf_;
    std::string origin_;
    std::string chunk_; //!< The open (or last) chunk, for messages.
    std::size_t pos_ = 0;
    std::size_t chunkEnd_ = npos;
};

/**
 * Collision-safe crash-artifact base: "<out>.crash.<pid>[.<tag>]".
 * Parallel fuzz/farm workers and --watchdog-secs panics all dump
 * through this path, so artifacts from concurrent processes (and a
 * caller-supplied tag such as the fuzz seed) never clobber each other.
 */
inline std::string
crashArtifactBase(const std::string &out, const std::string &tag = "")
{
    std::string base = out + ".crash." + std::to_string(::getpid());
    if (!tag.empty()) {
        base += "." + tag;
    }
    return base;
}

} // namespace hwgc::checkpoint

#endif // HWGC_SIM_CHECKPOINT_H
