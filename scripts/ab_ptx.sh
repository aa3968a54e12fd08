#!/usr/bin/env bash
# In-process A/B of `bm-ptx`: the working tree's crate against the one at
# <base-rev>, linked into one binary and timed launch by launch.
#
#   scripts/ab_ptx.sh <base-rev> [--small] [--rounds N] [--random N] [--apps A,B,..]
#
# <base-rev> = HEAD against an unchanged tree measures code placement
# alone. The harness source is scripts/ab_ptx/; everything it builds goes
# under target/ab/.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,9p' "$0"
    exit 2
fi
rev=$1
shift
root=$(git rev-parse --show-toplevel)
ab=$root/target/ab
base=$ab/ptx-base

rm -rf "$base"
mkdir -p "$base"
# `-m` stamps the files with the extraction time: with the commit's time,
# a revision older than the last one built would look up to date to cargo,
# which would reuse that build.
git -C "$root" archive "$rev" crates/ptx/src | tar -x -m -C "$base" --strip-components=2
# A standalone manifest: the extracted crate is in no workspace.
cat > "$base/Cargo.toml" <<TOML
[package]
name = "bm-ptx-base"
version = "0.0.0"
edition = "2021"
publish = false
TOML
# The seeded random-kernel generator, without its inner attributes, for
# the harness to include once against each crate.
sed -e '/^\/\/!/d' -e '/^#!\[/d' "$root/tests/common/random_kernel.rs" > "$ab/random_kernel.rs"

echo "bm-ptx-base = $(git -C "$root" rev-parse --short "$rev"); bm-ptx = working tree" >&2
AB_RANDOM_KERNEL=$ab/random_kernel.rs cargo run --release --quiet \
    --manifest-path "$root/scripts/ab_ptx/Cargo.toml" --target-dir "$ab/target" -- "$@"
