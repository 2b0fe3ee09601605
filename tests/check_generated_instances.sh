#!/usr/bin/env bash
# Checks that `generate-disk` still writes the instance files it has
# always written: planted, sparse and zipf instances, each in the binary
# and the text format, must match the SHA-256 digests below byte for
# byte. The digests were recorded from the serial generator with the
# hash-set Floyd sampler; every benchmark and BENCH_*.json file was
# measured on files it wrote.
#
#   tests/check_generated_instances.sh path/to/streamcover_cli [workdir]
#
# Exits non-zero on the first command that fails or digest that differs.
set -euo pipefail

cli=$1
dir=${2:-$(mktemp -d)}
mkdir -p "$dir"

generate() {
  local name=$1
  shift
  for format in binary text; do
    local ext=bin
    [ "$format" = text ] && ext=txt
    "$cli" generate-disk "$@" --out "$dir/$name.$ext" --format "$format" \
      > /dev/null
  done
}

generate planted --type planted --n 2000 --m 8000 --k 20 --seed 7
generate sparse --type sparse --n 20000 --m 200000 --s 32 --seed 5
generate zipf --type zipf --n 4000 --m 20000 --s 24 --seed 7

cd "$dir"
sha256sum -c <<'EOF'
abde61a834905a40ebac580c9de589ed5d0d76ed2c8a0a7f0f8431a9312a6870  planted.bin
b1c05b4533ed5fe234156610340c354c29dedd78248994920d1c8a60c7ef3ce9  planted.txt
a5f15da53ad4506e654a52560a7db02b2a411cc2a3fbdd154ee307c8c90cade7  sparse.bin
f58c2ef51aaa37451077ecfd1a9ce5f7bac7475edb30bfed657f725222f0f91f  sparse.txt
215f88eb9c5e2e4f0b1fc1f0efe173d013f2655a7e1f128e5c9b7b5e807d9d23  zipf.bin
ac49490ff48b8afea29473b1912f39c6c77de6afd7b738548d96395019913f11  zipf.txt
EOF
