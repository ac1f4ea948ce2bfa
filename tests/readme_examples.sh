#!/usr/bin/env bash
# Run every `squareperm ...` line of the README in a scratch directory.
# A decode may exit 1 (a decode failure is a result, not an error); every
# other command must exit 0.  Usage: bash tests/readme_examples.sh README.md
set -u
readme=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"
status=0
while IFS= read -r line; do
    cmd=${line%%#*}
    case "$cmd" in
        "squareperm decode "*) most=1 ;;
        *) most=0 ;;
    esac
    eval "$cmd" > /dev/null
    code=$?
    echo "exit $code: $cmd"
    if [ "$code" -gt "$most" ]; then
        status=1
    fi
done < <(grep -E '^squareperm ' "$readme")
exit $status
