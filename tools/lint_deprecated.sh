#!/usr/bin/env bash
# Fails when in-tree code resurrects the deprecated pre-QueryRequest
# compatibility shims. The shims lived in src/ripple/compat.h for exactly
# one migration-window PR and are now deleted; the patterns stay banned so
# they do not creep back in:
#   * including ripple/compat.h (the header no longer exists)
#   * calling through ripple::compat:: (Run shims, kRippleSlow)
#   * the bare kRippleSlow sentinel (replaced by RippleParam::Slow())
#
# Also forbidden: defining the test oracles (the scalar skyline, merge
# and top-k kernels, the k-skyband sort-and-count) under src/, and
# opening ".csv" result files anywhere but
# obs::BenchReporter (src/obs/bench_report.cc). All benchmark result
# emission flows through the reporter so BENCH_<suite>.json, the CSV
# panels and the bench_check.py gate stay consistent.
#
# Usage: tools/lint_deprecated.sh   (exit 0 clean, 1 on violations)
set -euo pipefail

cd "$(dirname "$0")/.."

FAIL=0
check() {
  local pattern="$1" what="$2"
  local hits
  hits=$(grep -rn --include='*.cc' --include='*.h' --include='*.cpp' \
           -e "$pattern" src bench examples tests tools || true)
  if [[ -n "$hits" ]]; then
    echo "lint_deprecated: forbidden $what:" >&2
    echo "$hits" >&2
    FAIL=1
  fi
}

check 'ripple/compat\.h'  'include of the deprecated compat header'
check 'compat::'          'use of the ripple::compat shim namespace'
check '\bkRippleSlow\b'   'legacy kRippleSlow sentinel (use RippleParam::Slow())'

# The reference kernels the tests and the kernel benches compare against
# live in tests/oracles/, not in the production library.
ORACLE_HITS=$(grep -rnE --include='*.cc' --include='*.h' \
                '\b(ComputeSkylineScalar|MergeSkylinesScalar|SelectTopKScalar|KSkybandOracle)\b' \
                src || true)
if [[ -n "$ORACLE_HITS" ]]; then
  echo "lint_deprecated: test oracle in src/ (keep it in tests/oracles/):" >&2
  echo "$ORACLE_HITS" >&2
  FAIL=1
fi

# CSV emission outside the sanctioned reporter: a `.csv` string literal in
# C++ code means someone is hand-rolling result files again.
CSV_HITS=$(grep -rn --include='*.cc' --include='*.h' --include='*.cpp' \
             -e '\.csv"' src bench examples tests tools \
           | grep -v '^src/obs/bench_report\.cc:' || true)
if [[ -n "$CSV_HITS" ]]; then
  echo "lint_deprecated: raw .csv emission outside obs::BenchReporter:" >&2
  echo "$CSV_HITS" >&2
  echo "route results through bench::Reporter() / BenchReporter::WritePanelCsv" >&2
  FAIL=1
fi

if [[ "$FAIL" -ne 0 ]]; then
  echo "lint_deprecated: migrate the callers above to QueryRequest/RippleParam" >&2
  exit 1
fi
echo "lint_deprecated: clean"
