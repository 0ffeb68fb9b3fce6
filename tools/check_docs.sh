#!/bin/sh
# Documentation consistency gate (CI: the "docs link-check" step).
#
# Three checks, all grep-based so the gate needs nothing beyond POSIX sh:
#
#   1. Every relative markdown link in README.md and docs/*.md must point
#      at a file or directory that exists (anchors and external URLs are
#      skipped). Catches renames that orphan links.
#
#   2. docs/PROTOCOL.md is the normative wire spec: every protocol
#      constant, message type, and wire code declared in
#      src/net/protocol.h must be named in it. Catches protocol changes
#      that skip the spec.
#
#   3. docs/OPERATIONS.md's counter tables are the glossaries of the
#      stats structs: every uint64_t field of net::NetStats
#      (src/net/server.h) must be named in the counter column of the
#      "Network" table, of service::ServiceStats
#      (src/service/query_service.h) in the "Service" table, of
#      sql::ExecStats (src/sql/executor.h) in the "Executor" table, and
#      of db::CorpusInfo (src/db/database.h) in the "Catalog" table; every
#      backticked name in those columns must still be a field of its
#      struct (`cache.*` names the field `cache`). Catches counters added
#      without a gloss and glosses left behind by deletions.
#
# Exits nonzero listing every violation. Run from the repository root.
set -u

fail=0

say() { printf '%s\n' "$*"; }

# --- 1. relative links resolve ------------------------------------------

for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # Pull out `](target)` link targets, one per line.
  links=$(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${link%%#*}            # strip in-page anchor
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      say "BROKEN LINK: $doc -> $link"
      fail=1
    fi
  done
done

# --- 2. PROTOCOL.md names every protocol.h identifier -------------------

header=src/net/protocol.h
spec=docs/PROTOCOL.md
if [ -f "$header" ] && [ -f "$spec" ]; then
  # Constants (kCamelCase constexpr), enum types, and enumerators. The
  # enumerator grep keys on the "= <value>," initializer style both enums
  # use; helper-local names never match these shapes.
  idents=$(
    grep -o 'constexpr [a-z0-9_]* k[A-Za-z0-9]*' "$header" | awk '{print $3}'
    grep -o 'enum class [A-Za-z]*' "$header" | awk '{print $3}'
    grep -o '^  k[A-Za-z0-9]* = [0-9]*' "$header" | awk '{print $1}'
  )
  for ident in $(printf '%s\n' "$idents" | sort -u); do
    if ! grep -q "$ident" "$spec"; then
      say "UNDOCUMENTED: $header declares $ident but $spec never names it"
      fail=1
    fi
  done
elif [ -f "$header" ]; then
  say "MISSING: $spec (normative spec for $header)"
  fail=1
fi

# --- 3. OPERATIONS.md glosses exactly the stats counters -----------------

ops=docs/OPERATIONS.md

# check_gloss STRUCT HEADER HEADING: the table under "### HEADING" in
# $ops names every uint64_t field of STRUCT (declared in HEADER), and
# nothing that is not a field of it.
check_gloss() {
  struct=$1 header=$2 heading=$3
  [ -f "$header" ] && [ -f "$ops" ] || return 0
  body=$(sed -n "/^struct $struct {/,/^};/p" "$header")
  counters=$(
    printf '%s\n' "$body" | grep -o '^  uint64_t [a-z_0-9]*' |
      awk '{print $2}' | sort -u
  )
  # Every data member, whatever its type: `  Type name [= init];`.
  members=$(
    printf '%s\n' "$body" |
      grep -o '^  [A-Za-z][A-Za-z0-9_:<>]* [a-z_][a-z_0-9]*\( =[^;]*\)\{0,1\};' |
      awk '{print $2}' | tr -d ';' | sort -u
  )
  # Counter column: the backticked names between a row's first two pipes.
  glossed=$(
    sed -n "/^### $heading/,/^##/p" "$ops" | grep '^| `' |
      cut -d'|' -f2 | grep -o '`[^`]*`' | tr -d '`' | sed 's/\.\*$//' |
      sort -u
  )
  if [ -z "$counters" ] || [ -z "$glossed" ]; then
    say "MISSING: $struct fields or the \"$heading\" table in $ops"
    fail=1
    return 0
  fi
  for field in $counters; do
    if ! printf '%s\n' "$glossed" | grep -qx "$field"; then
      say "UNDOCUMENTED: $struct::$field is not in $ops's $heading table"
      fail=1
    fi
  done
  for name in $glossed; do
    if ! printf '%s\n' "$members" | grep -qx "$name"; then
      say "STALE: $ops's $heading table names $name, not a field of $struct"
      fail=1
    fi
  done
}

check_gloss NetStats src/net/server.h Network
check_gloss ServiceStats src/service/query_service.h Service
check_gloss ExecStats src/sql/executor.h Executor
check_gloss CorpusInfo src/db/database.h Catalog

if [ "$fail" -ne 0 ]; then
  say ""
  say "docs check FAILED (see above)"
  exit 1
fi
say "docs check OK"
