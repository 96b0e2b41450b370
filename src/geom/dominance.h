#ifndef RIPPLE_GEOM_DOMINANCE_H_
#define RIPPLE_GEOM_DOMINANCE_H_

#include <cstddef>

#include "geom/point.h"
#include "geom/rect.h"

namespace ripple {

/// Pareto dominance with min-is-better semantics on every attribute,
/// matching the paper's Section 5 convention ("lower values are better").
///
/// `a` dominates `b` iff a <= b componentwise and a < b in at least one
/// component.
bool Dominates(const Point& a, const Point& b);

/// True when point `s` dominates *every* point of the rectangle `r`,
/// i.e. s dominates the rect's lower corner (Algorithm 14's region test:
/// a region is prunable when some skyline point dominates all tuples it
/// could possibly contain).
bool DominatesRect(const Point& s, const Rect& r);

/// True when *some* point of `r` could dominate `p` — equivalently, the
/// rect's lower corner dominates `p`. Used to decide whether a region can
/// still contribute to the skyline given current results.
bool RectMayDominate(const Rect& r, const Point& p);

/// Column-wise dominance kernel: true when any of the `m` points stored
/// column-wise in `cols` (dims column arrays of m values each) dominates
/// `p`. The first (possibly partial) block is scanned row-at-a-time with
/// short-circuit — callers keep candidates in ascending-coordinate-sum
/// order, so the strongest dominators sit up front. The remaining rows
/// run the branch-light path: per block, a byte mask le[i] (<= everywhere
/// so far) is narrowed one column at a time with straight-line compares
/// the compiler can auto-vectorize, a block is abandoned as soon as no
/// lane survives the prefix, and strictness is resolved scalar for the
/// rare all-<= survivors. The dominance_cmps kernel counter advances by
/// the rows of every block actually tested, which makes it independent of
/// WHERE in a block the dominator sits: exact-gateable given the same
/// data.
bool AnyDominatesColumns(const double* const* cols, int dims, size_t m,
                         const Point& p);

/// Column-wise counting kernel: how many of the `m` column-resident points
/// in `cols` dominate `p`, counted up to `limit` (the result is
/// min(count, limit); a zero limit tests nothing). Every row runs the
/// block path of AnyDominatesColumns — 16-row blocks, a byte mask
/// narrowed one column at a time, strictness resolved scalar for the
/// all-<= survivors — and the scan stops after the block in which the
/// count reaches `limit`. dominance_cmps advances by the rows of every
/// block tested, so it is exact-gateable like AnyDominatesColumns'. The
/// k-skyband kernels call it with a prefix of a candidate set kept in
/// (coordinate sum, id) order, which is how they apply the precedence
/// rule (docs/STORE.md): only rows before `p` in that order may count.
size_t CountDominatorsColumns(const double* const* cols, int dims, size_t m,
                              const Point& p, size_t limit);

}  // namespace ripple

#endif  // RIPPLE_GEOM_DOMINANCE_H_
