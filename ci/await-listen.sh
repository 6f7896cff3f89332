#!/bin/sh
# Usage: ci/await-listen.sh <file>
#
# Waits for the `listening on <addr>` line that `mqdiv serve` and
# `mqdiv route` print as their first stdout line (redirected to <file>),
# then prints <addr>. Polls 50 times, 0.2 s apart; exits non-zero if no
# address appeared by then.
set -eu
file=$1
for _ in $(seq 1 50); do
  grep -q '^listening on ' "$file" && break
  sleep 0.2
done
addr=$(sed -n 's/^listening on //p' "$file" | head -n1)
if [ -z "$addr" ]; then
  echo "await-listen: no 'listening on' line in $file" >&2
  exit 1
fi
echo "$addr"
