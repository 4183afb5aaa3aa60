#!/usr/bin/env bash
# Print the commit a ledger A/B compares the checked-out tree against.
#
#     bash .github/scripts/ab_parent.sh EVENT_SHA
#
# EVENT_SHA is the pull request's base commit or the push's "before".
# A push that opens a branch has an all-zero "before", and a force push
# can name a commit the clone does not have; both fall back to HEAD^.
# The commit goes to standard output, the reason to standard error.
set -euo pipefail
sha="${1:-}"
if [ -z "${sha//0/}" ] || ! git cat-file -e "$sha^{commit}" 2>/dev/null; then
  sha="$(git rev-parse HEAD^)"
  echo "A/B parent: HEAD^ ($sha), the event names no usable commit" >&2
else
  echo "A/B parent: $sha" >&2
fi
echo "$sha"
