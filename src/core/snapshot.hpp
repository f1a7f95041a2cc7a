#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace grads::core {

/// Raised on any snapshot encode/decode failure: truncated images, checksum
/// mismatches, type-tag mismatches, unknown format versions, or a component
/// whose section is missing from the image being restored.
class SnapshotError : public Error {
 public:
  explicit SnapshotError(const std::string& what) : Error(what) {}
};

namespace detail {
// Shapes the field walker below recognizes.
template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T>
inline constexpr bool kIsList = false;
template <class T, class A>
inline constexpr bool kIsList<std::vector<T, A>> = true;
template <class T, class A>
inline constexpr bool kIsList<std::deque<T, A>> = true;
template <class T>
inline constexpr bool kIsSet = false;
template <class T, class C, class A>
inline constexpr bool kIsSet<std::set<T, C, A>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;
}  // namespace detail

/// Typed append-only field sink. Every field is written as a type-tag word
/// followed by its payload words, so a reader that drifts out of sync with
/// the writer fails loudly on the next field instead of silently
/// reinterpreting bytes.
///
/// Components do not call put* one field at a time. Each snapshotted type
/// lists its fields once, in
///
///   template <class Self, class Ar>
///   static void snapshotIo(Self& s, Ar& a) { a(s.x, s.y, ...); }
///
/// and both encodeState and decodeState call it (Self is const when
/// writing). The walker `w(a, b, ...)` picks the tag from the C++ type:
///   - bool; double as f64; signed integers as i64, unsigned as u64;
///   - an enum as its underlying type; std::string;
///   - a pair as its two members; an optional as a bool, then the value
///     if present;
///   - vector, deque, set and map as a u64 count, then the elements (map
///     entries as key, value);
///   - Rng as its six state words (four xoshiro words, spare flag, spare);
///   - a type with a snapshotIo it can call: that field list;
///   - otherwise the type's own encodeState (nested Snapshottables and
///     polymorphic pieces such as the NWS forecasters).
class SnapshotWriter {
 public:
  void putU64(std::uint64_t v);
  void putI64(std::int64_t v);
  void putF64(double v);
  void putBool(bool v);
  void putStr(const std::string& s);

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  /// Writes values that the reader checks against the rebuilt component
  /// instead of restoring them: topology sizes, configuration, the owner
  /// of a per-application record. `what` is the reader's error message.
  template <class... T>
  void expect(const char* /*what*/, const T&... v) {
    (put(v), ...);
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      putBool(v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      putF64(v);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      putI64(v);
    } else if constexpr (std::is_integral_v<T>) {
      putU64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      putStr(v);
    } else if constexpr (std::is_same_v<T, Rng>) {
      const RngState st = v.state();
      (*this)(st.s[0], st.s[1], st.s[2], st.s[3], st.haveSpare, st.spare);
    } else if constexpr (detail::kIsPair<T>) {
      (*this)(v.first, v.second);
    } else if constexpr (detail::kIsOptional<T>) {
      putBool(v.has_value());
      if (v) put(*v);
    } else if constexpr (detail::kIsList<T> || detail::kIsSet<T> ||
                         detail::kIsMap<T>) {
      putU64(v.size());
      for (const auto& e : v) put(e);
    } else if constexpr (requires { T::snapshotIo(v, *this); }) {
      T::snapshotIo(v, *this);
    } else {
      v.encodeState(*this);
    }
  }

  std::vector<std::uint64_t> words_;
};

/// Typed field source over one section's words. Each get* verifies the type
/// tag written by the matching put* and throws SnapshotError on mismatch or
/// exhaustion. `done()` lets decoders assert they consumed the whole
/// section (catching an encoder that grew a field the decoder ignores).
///
/// `r(a, b, ...)` is the writer's walker run backwards: every field is
/// overwritten, containers are cleared before they are refilled, and a
/// count larger than the words left in the section, or an integer that does
/// not fit its field, is a SnapshotError rather than an allocation.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::vector<std::uint64_t>& words)
      : words_(&words) {}

  std::uint64_t getU64();
  std::int64_t getI64();
  double getF64();
  bool getBool();
  std::string getStr();

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

  /// Reads values written by SnapshotWriter::expect and throws
  /// SnapshotError(what) unless each equals the rebuilt component's own.
  template <class... T>
  void expect(const char* what, const T&... want) {
    (check(what, want), ...);
  }

  bool done() const { return pos_ == words_->size(); }
  std::size_t remaining() const { return words_->size() - pos_; }

 private:
  std::uint64_t take(const char* what);
  /// A container length, bounded by the words left: every element takes at
  /// least one word, so a larger count is a forged or corrupt section.
  std::uint64_t count();

  template <class T, class W>
  static T narrow(W w) {
    if (!std::in_range<T>(w)) {
      throw SnapshotError("snapshot integer does not fit its field");
    }
    return static_cast<T>(w);
  }

  template <class T>
  void check(const char* what, const T& want) {
    T got{};
    get(got);
    if (!(got == want)) throw SnapshotError(what);
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = getBool();
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_floating_point_v<T>) {
      v = static_cast<T>(getF64());
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      v = narrow<T>(getI64());
    } else if constexpr (std::is_integral_v<T>) {
      v = narrow<T>(getU64());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = getStr();
    } else if constexpr (std::is_same_v<T, Rng>) {
      RngState st;
      (*this)(st.s[0], st.s[1], st.s[2], st.s[3], st.haveSpare, st.spare);
      v.setState(st);
    } else if constexpr (detail::kIsPair<T>) {
      (*this)(v.first, v.second);
    } else if constexpr (detail::kIsOptional<T>) {
      v.reset();
      if (getBool()) get(v.emplace());
    } else if constexpr (detail::kIsList<T>) {
      const std::uint64_t n = count();
      v.clear();
      for (std::uint64_t i = 0; i < n; ++i) get(v.emplace_back());
    } else if constexpr (detail::kIsSet<T>) {
      const std::uint64_t n = count();
      v.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::value_type e{};
        get(e);
        v.insert(std::move(e));
      }
    } else if constexpr (detail::kIsMap<T>) {
      const std::uint64_t n = count();
      v.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::key_type k{};
        get(k);
        get(v.try_emplace(std::move(k)).first->second);
      }
    } else if constexpr (requires { T::snapshotIo(v, *this); }) {
      T::snapshotIo(v, *this);
    } else {
      v.decodeState(*this);
    }
  }

  const std::vector<std::uint64_t>* words_;
  std::size_t pos_ = 0;
};

/// Interface a component implements to participate in whole-simulation
/// snapshots. encodeState/decodeState must write/read the *same field
/// sequence*, which is why both call the component's one snapshotIo field
/// list; decode-only rebuilds (derived indexes, gauges, daemon latches)
/// follow the walk inside decodeState. snapshotVersion() is stored per
/// section and verified on restore so stale images fail with a versioned
/// error instead of a tag mismatch deep inside decode.
///
/// Contract: decodeState fully overwrites the component's logical state but
/// must NOT schedule engine events — restore happens at a quiescent boundary
/// and daemons are re-armed explicitly afterwards (see DESIGN.md §8).
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual const char* snapshotSection() const = 0;
  virtual std::uint32_t snapshotVersion() const { return 1; }
  virtual void encodeState(SnapshotWriter& w) const = 0;
  virtual void decodeState(SnapshotReader& r) = 0;
};

/// One named, versioned, checksummed section of a snapshot image.
struct SnapshotSection {
  std::string name;
  std::uint32_t version = 1;
  std::vector<std::uint64_t> words;

  /// FNV-1a over name, version, and payload words.
  std::uint64_t checksum() const;
};

/// A whole-simulation snapshot: the simulation clock plus every registered
/// component's section. serialize()/parse() round-trip through a flat byte
/// buffer with per-section checksums and a whole-image checksum, so a
/// corrupt or truncated image is rejected before any component decodes.
class SnapshotImage {
 public:
  static constexpr std::uint64_t kMagic = 0x31504e5344524722ULL;  // "\"GRDSNP1"
  static constexpr std::uint64_t kFormatVersion = 1;

  double simTime = 0.0;

  void addSection(SnapshotSection section);
  const SnapshotSection* findSection(const std::string& name) const;
  const std::vector<SnapshotSection>& sections() const { return sections_; }

  std::vector<std::uint8_t> serialize() const;
  static SnapshotImage parse(const std::vector<std::uint8_t>& bytes);

  /// FNV-1a over the serialized bytes — the image's identity. The crash
  /// sweep caches its uncrashed reference arm per image digest.
  std::uint64_t digest() const;

 private:
  std::vector<SnapshotSection> sections_;
};

/// Ordered set of components that make up one snapshot domain. Registration
/// order is capture order; restore decodes every registered component from
/// its named section (missing section, version skew, or leftover words are
/// all errors — partial restores are forbidden).
class SnapshotRegistry {
 public:
  void add(Snapshottable& component);

  SnapshotImage capture(double simTime) const;
  void restore(const SnapshotImage& image);

  std::size_t size() const { return components_.size(); }

 private:
  std::vector<Snapshottable*> components_;
};

}  // namespace grads::core
