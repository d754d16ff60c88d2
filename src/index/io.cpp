#include "index/io.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace griffin::index {

namespace {

constexpr std::uint64_t kMagic = 0x4752494646494E31ull;  // "GRIFFIN1"
// v4: codec policy (fixed scheme + adaptive flag), a scheme byte per list,
// and field-by-field BlockMeta records (no struct padding on disk). v3 also
// stored a block size, now always codec::kBlockSize. Older versions fail.
constexpr std::uint32_t kVersion = 4;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void write_raw(std::FILE* f, const void* p, std::size_t bytes) {
  if (std::fwrite(p, 1, bytes, f) != bytes) {
    throw std::runtime_error("index save: short write");
  }
}
void read_raw(std::FILE* f, void* p, std::size_t bytes) {
  if (std::fread(p, 1, bytes, f) != bytes) {
    throw std::runtime_error("index load: short read");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_raw(f, &v, sizeof(T));
}
template <typename T>
T read_pod(std::FILE* f) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  read_raw(f, &v, sizeof(T));
  return v;
}

template <typename T>
void write_vec(std::FILE* f, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(f, v.size());
  if (!v.empty()) write_raw(f, v.data(), v.size() * sizeof(T));
}
template <typename T>
std::vector<T> read_vec(std::FILE* f) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::uint64_t>(f);
  std::vector<T> v(n);
  if (n > 0) read_raw(f, v.data(), n * sizeof(T));
  return v;
}

void write_meta(std::FILE* f, const codec::BlockMeta& m) {
  write_pod<std::uint32_t>(f, m.first);
  write_pod<std::uint32_t>(f, m.last);
  write_pod<std::uint64_t>(f, m.bit_offset);
  write_pod<std::uint16_t>(f, m.count);
  write_pod<std::uint8_t>(f, static_cast<std::uint8_t>(m.hdr.scheme));
  write_pod<std::uint8_t>(f, m.hdr.b);
  write_pod<std::uint16_t>(f, m.hdr.h16a);
  write_pod<std::uint16_t>(f, m.hdr.h16b);
  write_pod<std::uint32_t>(f, m.hdr.h32);
}

codec::BlockMeta read_meta(std::FILE* f) {
  codec::BlockMeta m;
  m.first = read_pod<std::uint32_t>(f);
  m.last = read_pod<std::uint32_t>(f);
  m.bit_offset = read_pod<std::uint64_t>(f);
  m.count = read_pod<std::uint16_t>(f);
  m.hdr.scheme = static_cast<codec::Scheme>(read_pod<std::uint8_t>(f));
  m.hdr.b = read_pod<std::uint8_t>(f);
  m.hdr.h16a = read_pod<std::uint16_t>(f);
  m.hdr.h16b = read_pod<std::uint16_t>(f);
  m.hdr.h32 = read_pod<std::uint32_t>(f);
  return m;
}

}  // namespace

void save_index(const InvertedIndex& idx, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("index save: cannot open " + path);

  write_pod(f.get(), kMagic);
  write_pod(f.get(), kVersion);
  write_pod<std::uint8_t>(f.get(), static_cast<std::uint8_t>(idx.scheme()));
  write_pod<std::uint8_t>(f.get(), idx.adaptive() ? 1 : 0);

  // Document table.
  const auto& docs = idx.docs();
  write_pod<std::uint64_t>(f.get(), docs.num_docs());
  for (DocId d = 0; d < docs.num_docs(); ++d) {
    write_pod<std::uint32_t>(f.get(), docs.length(d));
  }

  // Posting lists, each tagged with its own scheme.
  write_pod<std::uint64_t>(f.get(), idx.num_terms());
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const PostingList& pl = idx.list(t);
    write_pod<std::uint64_t>(f.get(), pl.docids.size());
    write_pod<std::uint8_t>(f.get(),
                            static_cast<std::uint8_t>(pl.docids.scheme()));
    std::vector<std::uint64_t> blob(pl.docids.blob().begin(),
                                    pl.docids.blob().end());
    write_vec(f.get(), blob);
    write_pod<std::uint64_t>(f.get(), pl.docids.metas().size());
    for (const codec::BlockMeta& m : pl.docids.metas()) {
      write_meta(f.get(), m);
    }
    write_vec(f.get(), pl.freqs);
  }
}

InvertedIndex load_index(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("index load: cannot open " + path);

  if (read_pod<std::uint64_t>(f.get()) != kMagic) {
    throw std::runtime_error("index load: bad magic");
  }
  if (read_pod<std::uint32_t>(f.get()) != kVersion) {
    throw std::runtime_error("index load: version mismatch");
  }
  CodecPolicy policy;
  policy.fixed = static_cast<codec::Scheme>(read_pod<std::uint8_t>(f.get()));
  policy.adaptive = read_pod<std::uint8_t>(f.get()) != 0;

  InvertedIndex idx(policy);
  const auto ndocs = read_pod<std::uint64_t>(f.get());
  idx.docs().resize(ndocs);
  for (std::uint64_t d = 0; d < ndocs; ++d) {
    idx.docs().set_length(static_cast<DocId>(d),
                          read_pod<std::uint32_t>(f.get()));
  }

  const auto nterms = read_pod<std::uint64_t>(f.get());
  for (std::uint64_t t = 0; t < nterms; ++t) {
    const auto size = read_pod<std::uint64_t>(f.get());
    const auto scheme =
        static_cast<codec::Scheme>(read_pod<std::uint8_t>(f.get()));
    auto blob = read_vec<std::uint64_t>(f.get());
    std::vector<codec::BlockMeta> metas;
    const auto nmetas = read_pod<std::uint64_t>(f.get());
    metas.reserve(nmetas);
    for (std::uint64_t i = 0; i < nmetas; ++i) {
      metas.push_back(read_meta(f.get()));
    }
    PostingList pl;
    pl.docids = codec::BlockCompressedList::from_parts(
        scheme, size, std::move(blob), std::move(metas));
    pl.freqs = read_vec<std::uint8_t>(f.get());
    if (pl.freqs.size() != pl.docids.size()) {
      throw std::runtime_error("index load: freqs/docids size mismatch");
    }
    idx.add_list_raw(std::move(pl));
  }
  return idx;
}

}  // namespace griffin::index
