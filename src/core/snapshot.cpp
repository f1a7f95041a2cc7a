#include "core/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/hash.hpp"

namespace grads::core {

namespace {

// Field type tags. Values are part of the on-disk format; never reorder.
enum Tag : std::uint64_t {
  kTagU64 = 1,
  kTagI64 = 2,
  kTagF64 = 3,
  kTagBool = 4,
  kTagStr = 5,
};

const char* tagName(std::uint64_t tag) {
  switch (tag) {
    case kTagU64: return "u64";
    case kTagI64: return "i64";
    case kTagF64: return "f64";
    case kTagBool: return "bool";
    case kTagStr: return "str";
    default: return "?";
  }
}

std::uint64_t f64Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bitsF64(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Payload words holding `len` string bytes (no overflow near 2^64).
std::uint64_t wordsFor(std::uint64_t len) { return len / 8 + (len % 8 != 0); }

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter / SnapshotReader

void SnapshotWriter::putU64(std::uint64_t v) {
  words_.push_back(kTagU64);
  words_.push_back(v);
}

void SnapshotWriter::putI64(std::int64_t v) {
  words_.push_back(kTagI64);
  words_.push_back(static_cast<std::uint64_t>(v));
}

void SnapshotWriter::putF64(double v) {
  words_.push_back(kTagF64);
  words_.push_back(f64Bits(v));
}

void SnapshotWriter::putBool(bool v) {
  words_.push_back(kTagBool);
  words_.push_back(v ? 1 : 0);
}

void SnapshotWriter::putStr(const std::string& s) {
  words_.push_back(kTagStr);
  words_.push_back(s.size());
  const std::uint64_t nWords = wordsFor(s.size());
  for (std::size_t i = 0; i < nWords; ++i) {
    std::uint64_t w = 0;
    const std::size_t n = std::min<std::size_t>(8, s.size() - i * 8);
    std::memcpy(&w, s.data() + i * 8, n);
    words_.push_back(w);
  }
}

std::uint64_t SnapshotReader::take(const char* what) {
  if (pos_ >= words_->size()) {
    throw SnapshotError(std::string("snapshot section exhausted reading ") +
                        what);
  }
  return (*words_)[pos_++];
}

namespace {
void checkTag(std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    throw SnapshotError(std::string("snapshot field type mismatch: expected ") +
                        tagName(want) + ", found " + tagName(got));
  }
}
}  // namespace

std::uint64_t SnapshotReader::getU64() {
  checkTag(take("u64 tag"), kTagU64);
  return take("u64 value");
}

std::int64_t SnapshotReader::getI64() {
  checkTag(take("i64 tag"), kTagI64);
  return static_cast<std::int64_t>(take("i64 value"));
}

double SnapshotReader::getF64() {
  checkTag(take("f64 tag"), kTagF64);
  return bitsF64(take("f64 value"));
}

bool SnapshotReader::getBool() {
  checkTag(take("bool tag"), kTagBool);
  return take("bool value") != 0;
}

std::uint64_t SnapshotReader::count() {
  const std::uint64_t n = getU64();
  if (n > remaining()) {
    throw SnapshotError("snapshot container count " + std::to_string(n) +
                        " exceeds the " + std::to_string(remaining()) +
                        " words left in the section");
  }
  return n;
}

std::string SnapshotReader::getStr() {
  checkTag(take("str tag"), kTagStr);
  const std::uint64_t len = take("str length");
  const std::uint64_t nWords = wordsFor(len);
  if (nWords > remaining()) {
    throw SnapshotError("snapshot string of " + std::to_string(len) +
                        " bytes overruns its section");
  }
  std::string s(len, '\0');
  for (std::size_t i = 0; i < nWords; ++i) {
    const std::uint64_t w = take("str payload");
    const std::size_t n = std::min<std::size_t>(8, len - i * 8);
    std::memcpy(s.data() + i * 8, &w, n);
  }
  return s;
}

// ---------------------------------------------------------------------------
// SnapshotSection / SnapshotImage

std::uint64_t SnapshotSection::checksum() const {
  std::uint64_t h = util::fnv1a64(name);
  h = util::hashCombine(h, static_cast<std::uint64_t>(version));
  for (std::uint64_t w : words) h = util::hashCombine(h, w);
  return h;
}

void SnapshotImage::addSection(SnapshotSection section) {
  if (findSection(section.name) != nullptr) {
    throw SnapshotError("duplicate snapshot section '" + section.name + "'");
  }
  sections_.push_back(std::move(section));
}

const SnapshotSection* SnapshotImage::findSection(
    const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

// Image words are little-endian; serialize and parse copy them as host words.
static_assert(std::endian::native == std::endian::little,
              "snapshot images assume a little-endian host");

class WordCursor {
 public:
  explicit WordCursor(const std::vector<std::uint8_t>& bytes) : bytes_(&bytes) {
    if (bytes.size() % 8 != 0) {
      throw SnapshotError("snapshot image is not word-aligned");
    }
  }

  std::uint64_t next(const char* what) {
    std::uint64_t w = 0;
    std::memcpy(&w, take(what, 1), 8);
    return w;
  }

  /// The next `n` words as bytes, consumed.
  const std::uint8_t* take(const char* what, std::uint64_t n) {
    if (n > (bytes_->size() - pos_) / 8) {
      throw SnapshotError(std::string("snapshot image truncated reading ") +
                          what);
    }
    const std::uint8_t* p = bytes_->data() + pos_;
    pos_ += 8 * n;
    return p;
  }

  bool done() const { return pos_ == bytes_->size(); }

  /// Passes through a count of items that take at least one word each
  /// (sections, name words, payload words), rejecting any count larger than
  /// the words left before anything is sized from it.
  std::uint64_t fits(const char* what, std::uint64_t n) const {
    if (n > (bytes_->size() - pos_) / 8) {
      throw SnapshotError(std::string("snapshot image ") + what + " " +
                          std::to_string(n) + " overruns the image");
    }
    return n;
  }

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> SnapshotImage::serialize() const {
  // Header (magic, format, sim time, section count) and the image checksum,
  // then per section its name length, version, word count and checksum
  // around the name words and the payload.
  std::size_t words = 5;
  for (const auto& s : sections_) {
    words += 4 + wordsFor(s.name.size()) + s.words.size();
  }
  std::vector<std::uint8_t> out(8 * words);  // zeros pad each name
  std::uint8_t* p = out.data();
  const auto put = [&p](std::uint64_t w) {
    std::memcpy(p, &w, 8);
    p += 8;
  };
  put(kMagic);
  put(kFormatVersion);
  put(f64Bits(simTime));
  put(sections_.size());
  for (const auto& s : sections_) {
    put(s.name.size());
    std::memcpy(p, s.name.data(), s.name.size());
    p += 8 * wordsFor(s.name.size());
    put(s.version);
    put(s.words.size());
    if (!s.words.empty()) std::memcpy(p, s.words.data(), 8 * s.words.size());
    p += 8 * s.words.size();
    put(s.checksum());
  }
  put(util::fnv1a64(out.data(), out.size() - 8));
  return out;
}

SnapshotImage SnapshotImage::parse(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 8) throw SnapshotError("snapshot image too short");
  // Whole-image checksum covers everything before the trailing word.
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
  if (util::fnv1a64(bytes.data(), bytes.size() - 8) != stored) {
    throw SnapshotError("snapshot image checksum mismatch (corrupt image)");
  }

  WordCursor cur(bytes);
  if (cur.next("magic") != kMagic) {
    throw SnapshotError("snapshot image has wrong magic (not a snapshot?)");
  }
  const std::uint64_t fmt = cur.next("format version");
  if (fmt != kFormatVersion) {
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(fmt));
  }
  SnapshotImage img;
  img.simTime = bitsF64(cur.next("sim time"));
  const std::uint64_t nSections =
      cur.fits("section count", cur.next("section count"));
  for (std::uint64_t i = 0; i < nSections; ++i) {
    SnapshotSection sec;
    const std::uint64_t nameLen = cur.next("section name length");
    const std::uint64_t nameWords =
        cur.fits("section name length", wordsFor(nameLen));
    sec.name.resize(nameLen);
    std::memcpy(sec.name.data(), cur.take("section name", nameWords), nameLen);
    sec.version = static_cast<std::uint32_t>(cur.next("section version"));
    const std::uint64_t nWords =
        cur.fits("section word count", cur.next("section word count"));
    sec.words.resize(nWords);
    const std::uint8_t* payload = cur.take("section payload", nWords);
    if (nWords > 0) std::memcpy(sec.words.data(), payload, 8 * nWords);
    const std::uint64_t sum = cur.next("section checksum");
    if (sec.checksum() != sum) {
      throw SnapshotError("checksum mismatch in snapshot section '" +
                          sec.name + "'");
    }
    img.addSection(std::move(sec));
  }
  cur.next("image checksum");  // already verified above; consume it
  if (!cur.done()) throw SnapshotError("trailing bytes after snapshot image");
  return img;
}

std::uint64_t SnapshotImage::digest() const {
  const auto bytes = serialize();
  return util::fnv1a64(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// SnapshotRegistry

void SnapshotRegistry::add(Snapshottable& component) {
  for (const auto* c : components_) {
    if (std::string(c->snapshotSection()) == component.snapshotSection()) {
      throw SnapshotError(std::string("duplicate snapshot component '") +
                          component.snapshotSection() + "'");
    }
  }
  components_.push_back(&component);
}

SnapshotImage SnapshotRegistry::capture(double simTime) const {
  SnapshotImage img;
  img.simTime = simTime;
  for (const auto* c : components_) {
    SnapshotWriter w;
    c->encodeState(w);
    SnapshotSection sec;
    sec.name = c->snapshotSection();
    sec.version = c->snapshotVersion();
    sec.words = w.words();
    img.addSection(std::move(sec));
  }
  return img;
}

void SnapshotRegistry::restore(const SnapshotImage& image) {
  // Validate every section before mutating anything: restore is all-or-
  // nothing at the registry level.
  for (auto* c : components_) {
    const auto* sec = image.findSection(c->snapshotSection());
    if (sec == nullptr) {
      throw SnapshotError(std::string("snapshot image is missing section '") +
                          c->snapshotSection() + "'");
    }
    if (sec->version != c->snapshotVersion()) {
      throw SnapshotError(std::string("snapshot section '") +
                          c->snapshotSection() + "' version " +
                          std::to_string(sec->version) +
                          " does not match component version " +
                          std::to_string(c->snapshotVersion()));
    }
  }
  for (auto* c : components_) {
    const auto* sec = image.findSection(c->snapshotSection());
    SnapshotReader r(sec->words);
    c->decodeState(r);
    if (!r.done()) {
      throw SnapshotError(std::string("snapshot section '") +
                          c->snapshotSection() + "' has " +
                          std::to_string(r.remaining()) +
                          " unread words after decode");
    }
  }
}

}  // namespace grads::core
