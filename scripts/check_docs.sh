#!/usr/bin/env bash
# Documentation wall (the CI docs job):
#   1. every relative markdown link in the top-level pages and docs/
#      resolves to a real file;
#   2. docs/scenario-catalog.md matches what gen_scenario_docs renders
#      from the live scenario registry (the page is generated — a drift
#      means someone changed src/scenario without regenerating it);
#   3. the bench flag table in docs/operators-guide.md (the "| flag |
#      effect |" table) has a row for every `arg == "--..."` flag that
#      src/scenario/cli.cc parses, and no row for a flag it does not.
#      Removal notes in prose outside the table are fine;
#   4. the `--help` text in src/scenario/cli.cc lists exactly the flags
#      that file parses;
#   5. every path in the "shipped raw output" column of EXPERIMENTS.md's
#      artifact map is tracked by git (results/ is mostly gitignored).
#   6. the environment-variable table in docs/operators-guide.md (the
#      "| variable | read by | effect |" table) has a row for every
#      `getenv("WCS_...")` in src/, bench/, tools/ and examples/, and no
#      row for a variable nothing reads.
#   7. the CI "Run every example" step in .github/workflows/ci.yml runs
#      exactly the `wcs_add_example` targets of examples/CMakeLists.txt.
#   8. the README "Quickstart (API)" snippet compiles against src/
#      (`${CXX:-c++} -std=c++20 -fsyntax-only`; <iostream> and the
#      snippet's #include lines first, the rest wrapped in main()).
#   9. every repo path that README.md, DESIGN.md, EXPERIMENTS.md,
#      docs/*.md and perfbench/README.md name under src/, tests/, bench/,
#      scripts/, tools/, examples/, perfbench/ or docs/, and every
#      results/perf_*.md they cite, exists. A path naming a build target
#      (e.g. bench/bench_memlean) counts when its .cc source exists.
#      Patterns (a `*`, `<` or `{` right after the path) and paths
#      inside longer ones (build/bench/..., ../src) are not checked, nor
#      are other results/ files (example commands write outputs there).
#  10. every binary that README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md,
#      .claude/skills/verify/SKILL.md, .github/workflows/ci.yml and
#      scripts/*.sh run as `build/<dir>/<name>` is an `add_executable` or
#      `wcs_add_*` target of a CMakeLists.txt in the tree. Patterns (a
#      `*`, `<`, `{` or `$` right after the name) are not checked.
#  11. every backticked snake_case identifier (a whole backtick span)
#      on the pages rule 9 scans occurs as a word in the tracked files
#      under src/, tests/, bench/, tools/, perfbench/, examples/,
#      scripts/ or .github/, or in a tracked results/*.txt (where
#      EXPERIMENTS.md's bench_* section names live), so the docs name no
#      function, member or option the code no longer has.
#
#   scripts/check_docs.sh [BUILD_DIR]     # default: build
#
# Needs a configured build tree for the staleness half; pass the tree as
# $1 if it is not ./build.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

# --- 1. relative link check -------------------------------------------------
PAGES=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md)
broken=0
for page in "${PAGES[@]}"; do
  [ -f "$page" ] || continue
  dir=$(dirname "$page")
  # Inline links only: [text](target). External URLs and pure #anchors
  # are skipped; a local target's #fragment is stripped before the check.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "broken link in $page: ($target)" >&2
      broken=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$page" | sed -E 's/^\]\(//; s/\)$//')
done
if [ "$broken" -ne 0 ]; then
  echo "FAIL — broken relative markdown links (see above)" >&2
  exit 1
fi
echo "ok — all relative markdown links resolve"

# --- 2. scenario catalog staleness ------------------------------------------
GEN="$BUILD_DIR/tools/gen_scenario_docs"
if [ ! -x "$GEN" ]; then
  echo "building gen_scenario_docs in $BUILD_DIR ..."
  cmake --build "$BUILD_DIR" --target gen_scenario_docs -j
fi
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
"$GEN" "$tmp"
if ! diff -u docs/scenario-catalog.md "$tmp"; then
  echo "FAIL — docs/scenario-catalog.md is stale; regenerate with:" >&2
  echo "  ./$BUILD_DIR/tools/gen_scenario_docs docs/scenario-catalog.md" >&2
  exit 1
fi
echo "ok — docs/scenario-catalog.md matches the live scenario registry"

# --- 3. CLI flag table drift --------------------------------------------------
parsed=$(grep -oE 'arg == "--[a-z][a-z-]*"' src/scenario/cli.cc |
  sed -E 's/^arg == "//; s/"$//' | sort -u)
# Flags named in the first cell of each row of the "| flag | effect |"
# table (a row may list several, e.g. `--report PATH` / `--no-report`).
documented=$(awk '
  /^\| flag \| effect \|/ { in_table = 1; next }
  in_table && !/^\|/ { exit }
  in_table { split($0, cell, "|"); print cell[2] }
' docs/operators-guide.md | grep -oE -- '--[a-z][a-z-]*' | sort -u)
if [ -z "$documented" ]; then
  echo "FAIL — no \"| flag | effect |\" table in docs/operators-guide.md" >&2
  exit 1
fi
undocumented=$(comm -23 <(echo "$parsed") <(echo "$documented"))
stale=$(comm -13 <(echo "$parsed") <(echo "$documented"))
if [ -n "$undocumented" ] || [ -n "$stale" ]; then
  for f in $undocumented; do
    echo "flag $f is parsed by src/scenario/cli.cc but has no row in docs/operators-guide.md" >&2
  done
  for f in $stale; do
    echo "flag $f has a row in docs/operators-guide.md but src/scenario/cli.cc does not parse it" >&2
  done
  echo "FAIL — the operators-guide flag table drifted from the CLI" >&2
  exit 1
fi
echo "ok — the operators-guide flag table matches src/scenario/cli.cc"

# --- 4. CLI --help text drift -------------------------------------------------
# The help string runs from the `std::cout << "options:` line to the
# `std::exit(0)` that ends the --help branch.
helped=$(awk '
  /std::cout << "options:/ { in_help = 1 }
  in_help { print }
  in_help && /std::exit\(0\)/ { exit }
' src/scenario/cli.cc | grep -oE -- '--[a-z][a-z-]*' | sort -u)
if [ -z "$helped" ]; then
  echo "FAIL — no --help text found in src/scenario/cli.cc" >&2
  exit 1
fi
unhelped=$(comm -23 <(echo "$parsed") <(echo "$helped"))
stale=$(comm -13 <(echo "$parsed") <(echo "$helped"))
if [ -n "$unhelped" ] || [ -n "$stale" ]; then
  for f in $unhelped; do
    echo "flag $f is parsed by src/scenario/cli.cc but missing from its --help text" >&2
  done
  for f in $stale; do
    echo "flag $f is in the --help text of src/scenario/cli.cc but not parsed" >&2
  done
  echo "FAIL — the --help text drifted from the CLI" >&2
  exit 1
fi
echo "ok — the --help text matches the flags src/scenario/cli.cc parses"

# --- 5. artifact-map paths are tracked ----------------------------------------
shipped=$(awk '
  /^\| paper artifact \| scenario \| shipped raw output \|/ { in_table = 1; next }
  in_table && !/^\|/ { exit }
  in_table { split($0, cell, "|"); print cell[4] }
' EXPERIMENTS.md | grep -oE 'results/[^`]+' | sort -u)
if [ -z "$shipped" ]; then
  echo "FAIL — no artifact map with a \"shipped raw output\" column in EXPERIMENTS.md" >&2
  exit 1
fi
untracked=0
for path in $shipped; do
  if ! git ls-files --error-unmatch "$path" >/dev/null 2>&1; then
    echo "EXPERIMENTS.md artifact map names $path, which git does not track" >&2
    untracked=1
  fi
done
if [ "$untracked" -ne 0 ]; then
  echo "FAIL — the artifact map names untracked output (see above)" >&2
  exit 1
fi
echo "ok — every artifact-map output in EXPERIMENTS.md is tracked"

# --- 6. environment-variable table drift --------------------------------------
read_vars=$(grep -rhoE 'getenv\("WCS_[A-Z0-9_]+"\)' src bench tools examples |
  grep -oE 'WCS_[A-Z0-9_]+' | sort -u)
# Variables named in the first cell of each row of the table (a row may
# name one twice, e.g. `WCS_AUDIT=1` / `WCS_AUDIT=0`).
env_documented=$(awk '
  /^\| variable \| read by \| effect \|/ { in_table = 1; next }
  in_table && !/^\|/ { exit }
  in_table { split($0, cell, "|"); print cell[2] }
' docs/operators-guide.md | grep -oE 'WCS_[A-Z0-9_]+' | sort -u)
if [ -z "$env_documented" ]; then
  echo "FAIL — no \"| variable | read by | effect |\" table in docs/operators-guide.md" >&2
  exit 1
fi
unlisted=$(comm -23 <(echo "$read_vars") <(echo "$env_documented"))
unread=$(comm -13 <(echo "$read_vars") <(echo "$env_documented"))
if [ -n "$unlisted" ] || [ -n "$unread" ]; then
  for v in $unlisted; do
    echo "$v is read by getenv but has no row in docs/operators-guide.md" >&2
  done
  for v in $unread; do
    echo "$v has a row in docs/operators-guide.md but nothing reads it" >&2
  done
  echo "FAIL — the operators-guide environment-variable table drifted" >&2
  exit 1
fi
echo "ok — the operators-guide environment-variable table matches getenv"

# --- 7. CI example step drift -------------------------------------------------
built=$(grep -oE '^wcs_add_example\([a-z_0-9]+\)' examples/CMakeLists.txt |
  sed -E 's/^wcs_add_example\(//; s/\)$//' | sort -u)
# The step's script runs from its `- name: Run every example` line to the
# next line that is not part of the step (a new step or job).
ran=$(awk '
  /- name: Run every example/ { in_step = 1; next }
  in_step && /^ *- |^  [a-z]/ { exit }
  in_step { print }
' .github/workflows/ci.yml | grep -oE '\./build/examples/[a-z_0-9]+' |
  sed -E 's|^\./build/examples/||' | sort -u)
if [ -z "$built" ] || [ -z "$ran" ]; then
  echo "FAIL — no wcs_add_example targets or no CI \"Run every example\" step" >&2
  exit 1
fi
unrun=$(comm -23 <(echo "$built") <(echo "$ran"))
unbuilt=$(comm -13 <(echo "$built") <(echo "$ran"))
if [ -n "$unrun" ] || [ -n "$unbuilt" ]; then
  for e in $unrun; do
    echo "example $e is built by examples/CMakeLists.txt but the CI \"Run every example\" step does not run it" >&2
  done
  for e in $unbuilt; do
    echo "the CI \"Run every example\" step runs $e, which examples/CMakeLists.txt does not build" >&2
  done
  echo "FAIL — the CI example step drifted from examples/CMakeLists.txt" >&2
  exit 1
fi
echo "ok — the CI example step runs exactly the examples/CMakeLists.txt targets"

# --- 8. README API snippet compiles -------------------------------------------
# The first ```cpp block after the "## Quickstart (API)" heading.
snippet=$(awk '
  /^## Quickstart \(API\)/ { in_section = 1; next }
  in_section && /^```cpp/ { in_code = 1; next }
  in_code && /^```/ { exit }
  in_code { print }
' README.md)
if [ -z "$snippet" ]; then
  echo "FAIL — no cpp block under \"## Quickstart (API)\" in README.md" >&2
  exit 1
fi
snippet_cc=$(mktemp --suffix=.cc)
trap 'rm -f "$tmp" "$snippet_cc"' EXIT
{
  echo '#include <iostream>'
  grep -E '^#include' <<<"$snippet"
  echo 'int main() {'
  grep -vE '^#include' <<<"$snippet"
  echo '}'
} >"$snippet_cc"
if ! "${CXX:-c++}" -std=c++20 -fsyntax-only -Isrc "$snippet_cc"; then
  echo "FAIL — the README \"Quickstart (API)\" snippet does not compile" >&2
  exit 1
fi
echo "ok — the README \"Quickstart (API)\" snippet compiles"

# --- 9. paths named in the docs exist -----------------------------------------
missing=0
for page in README.md DESIGN.md EXPERIMENTS.md docs/*.md perfbench/README.md; do
  while IFS=: read -r line path; do
    path=$(sed -E 's|[./]+$||' <<<"$path")  # sentence-ending . or trailing /
    if [ ! -e "$path" ] && [ ! -e "$path.cc" ]; then
      echo "$page:$line names $path, which does not exist" >&2
      missing=1
    fi
  done < <(grep -noP '(?<![\w./-])(?:(?:src|tests|bench|scripts|tools|examples|perfbench|docs)/|results/perf_)[\w./-]++(?![*<{])' "$page")
done
if [ "$missing" -ne 0 ]; then
  echo "FAIL — the docs name repo paths that do not exist (see above)" >&2
  exit 1
fi
echo "ok — every repo path the docs name exists"

# --- 10. binaries the docs, CI and scripts run are CMake targets --------------
targets=$(find . -name CMakeLists.txt -not -path './build*' -not -path './.*' |
  xargs grep -ohE '(add_executable|wcs_add_[a-z]+)\([A-Za-z0-9_]+' |
  sed -E 's/^.*\(//' | sort -u)
unbuilt=0
for file in README.md DESIGN.md EXPERIMENTS.md docs/*.md \
    .claude/skills/verify/SKILL.md .github/workflows/ci.yml scripts/*.sh; do
  [ -f "$file" ] || continue
  while IFS=: read -r line path; do
    if ! grep -qxF "${path##*/}" <<<"$targets"; then
      echo "$file:$line runs $path, which no CMakeLists.txt builds" >&2
      unbuilt=1
    fi
  done < <(grep -noP '(?<![\w-])build/\w+/\w++(?![*<{$])' "$file")
done
if [ "$unbuilt" -ne 0 ]; then
  echo "FAIL — docs, CI or scripts run binaries that are not CMake targets (see above)" >&2
  exit 1
fi
echo "ok — every binary the docs, CI and scripts run is a CMake target"

# --- 11. identifiers named in the docs exist ----------------------------------
unknown=0
for page in README.md DESIGN.md EXPERIMENTS.md docs/*.md perfbench/README.md; do
  while IFS=: read -r line name; do
    name=${name//\`/}
    if ! git grep -qwF -e "$name" -- src tests bench tools perfbench examples \
        scripts .github 'results/*.txt'; then
      echo "$page:$line names \`$name\`, which no tracked source contains" >&2
      unknown=1
    fi
  done < <(grep -noE '`[a-z][a-z0-9]*_[a-z0-9_]*`' "$page" | sort -t: -k2 -u)
done
if [ "$unknown" -ne 0 ]; then
  echo "FAIL — the docs name identifiers the tree does not have (see above)" >&2
  exit 1
fi
echo "ok — every snake_case identifier the docs name occurs in the tree"
