#!/usr/bin/env bash
# Drift checks on the repository's own text. scripts/check.sh and CI run
# both, as the "Doc drift" and "Gate drift" steps:
#
#   bash scripts/drift.sh docs     # the docs cite only code that exists
#   bash scripts/drift.sh gates    # the three gate lists run one list

set -euo pipefail
cd "$(dirname "$0")/.."

# Every backticked `dcws_<crate>::…::Item` in docs/*.md and README.md
# names an item (struct, enum, trait, fn, mod, type, const or static)
# defined in that crate's sources, and every backticked `*.rs` file name
# there names a tracked file: a bare name one in any directory, a path
# the tail of one.
docs() {
    local path crate item files missing=0
    for path in $(grep -ohE '`dcws_[a-z]+(::[A-Za-z_][A-Za-z0-9_]*)+`' docs/*.md README.md | tr -d '`' | sort -u); do
        crate=${path%%::*}
        item=${path##*::}
        if ! grep -rqE "(struct|enum|trait|fn|mod|type|const|static) $item\b" "crates/${crate//_/-}/src"; then
            echo "unresolved: \`$path\`"
            missing=1
        fi
    done
    files=$(git ls-files '*.rs')
    for path in $(grep -ohE '`[A-Za-z0-9_./-]+\.rs`' docs/*.md README.md | tr -d '`' | sort -u); do
        if ! grep -qxE "(.*/)?${path//./\\.}" <<<"$files"; then
            echo "no such file: \`$path\`"
            missing=1
        fi
    done
    return $missing
}

# The commands a gate list runs, in order: each line whose first word —
# after its indent and a `run: ` (CI) or `step ` (check.sh) — is cargo,
# probe, bash, git, test or env, or that defines probe(); CI's
# `--offline` is dropped.
commands() {
    sed -nE 's/^[[:space:]]*(run: |step )?((cargo|probe|bash|git|test|env|probe\(\)) .*)$/\2/p' |
        sed -E 's/ --offline//; s/[[:space:]]*\\$//'
}

# CI, scripts/check.sh and the verify skill's gate list (the block between
# its `<!-- gates -->` markers) run the same commands in the same order,
# and no CI step name is longer than 80 characters: a step's rationale
# belongs in its check.sh comment.
gates() {
    local check ci skill name status=0
    check=$(commands <scripts/check.sh)
    ci=$(commands <.github/workflows/ci.yml)
    skill=$(sed -n '/<!-- gates -->/,/<!-- \/gates -->/p' .claude/skills/verify/SKILL.md | commands)
    if [[ -z $check ]]; then
        echo "scripts/check.sh runs no command"
        status=1
    fi
    if ! diff <(echo "$check") <(echo "$ci"); then
        echo "scripts/check.sh (<) and .github/workflows/ci.yml (>) run different commands"
        status=1
    fi
    if ! diff <(echo "$check") <(echo "$skill"); then
        echo "scripts/check.sh (<) and the verify skill's gate list (>) run different commands"
        status=1
    fi
    while IFS= read -r name; do
        if ((${#name} > 80)); then
            echo "CI step name over 80 characters: $name"
            status=1
        fi
    done < <(sed -nE 's/^[[:space:]]*- name: (.*)$/\1/p' .github/workflows/ci.yml)
    return $status
}

case "${1:-}" in
docs | gates) "$1" ;;
*)
    echo "usage: $0 docs|gates" >&2
    exit 2
    ;;
esac
