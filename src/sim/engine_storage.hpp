// Engine storage abstraction: owned-heap versus borrowed-mapped state.
//
// Every precomputed array the similarity spine reads (normalized rows,
// filled rows, missing bitmasks, segment norms, LSH signature banks) is an
// ArrayRef<T>, which makes the storage mode a property of each array
// instead of the class. An OWNED ArrayRef is a std::vector with the usual
// mutating surface — what SimilarityEngine::build and the LSH build fill.
// A BORROWED one is a read-only span into a long-lived mapping — what the
// artifact store's codecs restore (store/cached.hpp): every persisted
// engine, LSH index and SPELL dot bank is decoded by borrowing, never by
// copying back into anonymous heap, so n is not RAM-bound even though the
// store holds the exact bytes on disk. Read paths (.data() const /
// operator[] const / span()) are identical in both modes — the tile
// kernels, top-k, pruned and LSH paths compile unchanged and produce
// bit-identical results either way. Mutations are owned-only by contract
// and fail loudly on a borrowed array.
//
// EngineStoragePin is the lifetime + residency contract of borrowed mode:
// whoever lends the spans (the artifact reader in store/cached.cpp) hands
// the engine a pin that (a) keeps the mapping alive at least as long as
// the engine, (b) can drop clean file-backed pages the streaming tile
// driver is done with (release_pages -> madvise(MADV_DONTNEED)), and
// (c) re-validates the backing file before read phases touch unfaulted
// pages (check_backing -> fv::CorruptArtifactError on a shrunk file,
// instead of a mid-compute SIGBUS). Owned engines carry no pin and every
// hook is a no-op.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace fv::sim {

/// Which storage mode an engine's (or LSH index's) state arrays use.
enum class EngineStorage {
  kOwnedHeap,       ///< std::vector-backed; freshly built state
  kBorrowedMapped,  ///< read-only spans into a pinned artifact mapping
};

/// Lifetime and page-residency contract a borrowed-mapped engine holds on
/// its backing mapping. Implemented by the artifact layer; sim only calls
/// through it. All methods are const: the pin is logically immutable
/// shared state (page residency is not object state).
class EngineStoragePin {
 public:
  virtual ~EngineStoragePin() = default;

  /// Tells the backing that [data, data + bytes) will not be read again
  /// soon: clean file-backed pages inside the range may leave this
  /// process's resident set (they refault on demand from the page cache).
  /// Ranges not page-aligned are shrunk inward; a best-effort hint, never
  /// an error.
  virtual void release_pages(const void* data, std::size_t bytes) const = 0;

  /// Re-validates the backing file before a compute phase walks pages
  /// that may not be faulted in yet. Throws fv::CorruptArtifactError if
  /// the file shrank under the mapping (reading past the new EOF would be
  /// SIGBUS, not an exception — this check is what turns that into a
  /// typed error at a defined point).
  virtual void check_backing() const = 0;
};

/// One engine state array: an owned std::vector<T> or a borrowed read-only
/// span, behind the subset of the vector interface the sim kernels use.
/// Reads never branch on the mode beyond one pointer select; mutations
/// require owned mode (FV_REQUIRE) — borrowed state is immutable by
/// construction, the artifact's checksum sealed it.
template <typename T>
class ArrayRef {
 public:
  ArrayRef() = default;

  // ---- mode -------------------------------------------------------------

  bool borrowed() const noexcept { return view_ != nullptr; }

  /// Borrows `values` without copying. The caller owns the lifetime
  /// contract (an EngineStoragePin on the enclosing object); any owned
  /// contents are dropped.
  void borrow(std::span<const T> values) {
    owned_.clear();
    owned_.shrink_to_fit();
    view_ = values.data();
    view_size_ = values.size();
  }

  // ---- reads (both modes) ----------------------------------------------

  const T* data() const noexcept {
    return view_ != nullptr ? view_ : owned_.data();
  }
  std::size_t size() const noexcept {
    return view_ != nullptr ? view_size_ : owned_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size(); }
  std::span<const T> span() const noexcept { return {data(), size()}; }

  // ---- mutations (owned mode only) -------------------------------------

  T* data() {
    require_owned();
    return owned_.data();
  }
  T& operator[](std::size_t i) {
    require_owned();
    return owned_[i];
  }
  void assign(std::size_t n, const T& value) {
    require_owned();
    owned_.assign(n, value);
  }
  template <typename It>
  void assign(It first, It last) {
    require_owned();
    owned_.assign(first, last);
  }
  void resize(std::size_t n) {
    require_owned();
    owned_.resize(n);
  }
  void clear() {
    require_owned();
    owned_.clear();
  }
  void push_back(const T& value) {
    require_owned();
    owned_.push_back(value);
  }

 private:
  void require_owned() const {
    FV_REQUIRE(view_ == nullptr,
               "mutation of a borrowed-mapped engine array — borrowed "
               "state is immutable (it IS the checksummed artifact)");
  }

  std::vector<T> owned_;
  const T* view_ = nullptr;
  std::size_t view_size_ = 0;
};

}  // namespace fv::sim
