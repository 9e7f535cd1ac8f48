#!/usr/bin/env bash
# Fails when any scenario's event dispatch order changes: runs
# `pimsim verify all audit=1` and diffs the per-scenario combined
# audit-chain hashes (FNV-1a over every dispatched (time, seq, kind)
# tuple, XOR-combined across simulations) and event counts against the
# checked-in tools/audit_chains.txt.  A kernel change that is meant to be
# order-exact must leave this file untouched.
#
# Usage: tools/check_audit_chains.sh <path-to-pimsim-binary> [chains.txt]
#        tools/check_audit_chains.sh <path-to-pimsim-binary> --write
#   --write regenerates the checked-in file (only for a deliberate
#   change of event order; say why in the commit).
set -euo pipefail
bin=${1:?usage: check_audit_chains.sh <pimsim-binary> [chains.txt|--write]}
pins="$(dirname "$0")/audit_chains.txt"
write=0
case "${2:-}" in
  --write) write=1 ;;
  "") ;;
  *) pins=$2 ;;
esac

current=$(mktemp)
trap 'rm -f "$current"' EXIT

# Lines look like: verify fig12: ..., audit chain 8a9a... ok (6 sims,
# 13795 events), ...  -> "fig12 8a9a... 6 13795".
"$bin" verify all audit=1 2>&1 |
  sed -n 's/^verify \([A-Za-z0-9_]*\):.* audit chain \([0-9a-f]*\) ok (\([0-9]*\) sims, \([0-9]*\) events).*/\1 \2 \3 \4/p' \
  > "$current"
if [ ! -s "$current" ]; then
  echo "no audit chains parsed from '$bin verify all audit=1'" >&2
  exit 1
fi

if [ "$write" = 1 ]; then
  {
    echo "# scenario chain sims events -- from 'pimsim verify all audit=1'."
    echo "# Checked by tools/check_audit_chains.sh; regenerate with --write."
    cat "$current"
  } > "$pins"
  echo "wrote $pins ($(wc -l < "$current") scenario(s))"
  exit 0
fi

if ! diff -u <(grep -v '^#' "$pins") "$current"; then
  echo ""
  echo "EVENT ORDER CHANGED: audit chains (left: $pins, right: this build)."
  exit 1
fi
echo "audit chains match $pins ($(wc -l < "$current") scenario(s))"
