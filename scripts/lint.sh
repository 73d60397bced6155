#!/usr/bin/env bash
# lint.sh — jouleslint gate for CI.
#
# Runs the repository's custom static-analyzer suite (cmd/jouleslint)
# over every package: determinism of the simulation packages, the
# *Locked/BeginStep lock discipline, deadline coverage on the collection
# plane's conns, telemetry metric naming, unit-dimension safety, and the
# interprocedural pair — scratch-arena escapes and epoch-bump coverage. Per-fact and per-analyzer wall times
# go to stderr (-time) so a slow analyzer is visible in the CI log, not
# just as a slower total.
#
# jouleslint exits 1 on findings and 2 on load errors; both fail the
# gate. Individual findings are suppressed in the source with
# `//jouleslint:ignore <analyzer> -- <reason>`, never here — and
# scripts/lintratchet.sh budgets those suppressions.
set -u
cd "$(dirname "$0")/.."

echo "lint: jouleslint -time ./..."
if ! go run ./cmd/jouleslint -time ./...; then
    echo "lint: FAIL" >&2
    exit 1
fi
echo "lint: ok"
