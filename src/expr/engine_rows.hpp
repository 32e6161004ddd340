// Compendium rows served back out of a similarity engine.
//
// A kAllPairs engine already stores every input row verbatim (filled rows
// with missing cells zeroed + the presence bitmask), so consumers that
// need the original matrix — kNN imputation's fill loop, exports, tests —
// can reconstruct it from the engine alone. The interesting case is a
// borrowed-mapped engine (store::open_or_build_engine): the rows then come
// straight off the artifact mapping, meaning a warm process can serve
// compendium values without ever materializing a second heap copy of the
// matrix, and without re-parsing a single input file.
#pragma once

#include "expr/expression_matrix.hpp"
#include "sim/similarity_engine.hpp"

namespace fv::expr {

/// Reconstructs the exact input matrix a kAllPairs engine was built from:
/// size() x length(), each cell the original value where the engine's
/// presence bitmask says it was present and missing (quiet NaN) where not.
/// Bit-identical to the matrix passed to SimilarityEngine::from_rows —
/// filled rows preserve present cells verbatim — whether the engine is
/// heap-owned or borrowed-mapped. Throws fv::InvalidArgument on a kDotBank
/// engine (it keeps no filled rows by design).
ExpressionMatrix matrix_from_engine(const sim::SimilarityEngine& engine);

}  // namespace fv::expr
