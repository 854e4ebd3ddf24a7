#!/bin/sh
# Runs the installed `hetlink` console script end to end on a small bundle:
# gen-synth, ingest of a 3-node graph and of a node line with 5 columns, MAGNN
# train, eval and disambiguate (with and without the model's kept KB rows),
# then eval on another bundle, on broken copies of the bundle and on a bundle
# that is not there. Run it from an empty directory after
# `pip install`.
set -eu
# the files of a directory, one space after each
files() { ls "$1" | tr '\n' ' '; }
hetlink gen-synth --seed 1 --snippets 60 --out smoke
test "$(files smoke)" = "kb.npz manifest.json snippets.json "
# a bundle holds no TSV: ingest reads a node and an edge list written here;
# one name is punctuated and not ASCII, so the graph normalizes it name by
# name and the bundle holds it normalized; kb.npz holds the node list's own
# columns, a node's synonyms one line joined by "|", and the word vectors'
# tokens
printf '0\tDrug\taspirin\tASA|Acetylsalicylic Acid\n1\tAdverseEffect\tnausea\n2\tFinding\tFièvre, Aiguë\n' > nodes.tsv
printf '0\t1\tCAUSE\n1\t2\tINDICATE\n' > edges.tsv
hetlink ingest --nodes nodes.tsv --edges edges.tsv --dim 8 --out smoke-ingest
test "$(files smoke-ingest)" = "kb.npz manifest.json "
python3 -c 'import numpy as np; npz = np.load("smoke-ingest/kb.npz"); lines = {k: npz[k].tobytes().decode().split("\n") for k in ("names", "synonyms", "types")}; raise SystemExit(0 if "tokens" in npz.files and lines == {"names": ["aspirin", "nausea", "fièvre aiguë"], "synonyms": ["asa|acetylsalicylic acid", "", ""], "types": ["Drug", "AdverseEffect", "Finding"]} else 1)'
# a node line with a 5th column: exit status 1 and one stderr line that
# names the file and the line
printf '0\tDrug\taspirin\t\t0.5\n' > nodes.tsv
status=0
hetlink ingest --nodes nodes.tsv --edges edges.tsv --dim 8 --out smoke-5 \
  > /dev/null 2> five.err || status=$?
test "$status" -eq 1
test "$(wc -l < five.err)" -eq 1
grep -q '^error: nodes.tsv:1: ' five.err
test ! -e smoke-5
hetlink train --bundle smoke --snippets smoke/snippets.json --out smoke-model \
  --encoder magnn --sampler hard --epochs 2
hetlink eval --bundle smoke --model smoke-model --snippets smoke/snippets.json > eval.json
python3 -c 'import json, sys; sys.exit(0 if "f1" in json.load(open("eval.json")) else 1)'
hetlink disambiguate --bundle smoke --model smoke-model \
  --snippets smoke/snippets.json --top-k 3 > ranked.json
python3 -c 'import json, sys; out = json.load(open("ranked.json")); sys.exit(0 if isinstance(out, list) and out else 1)'
# the model directory keeps the KB rows that training computed; a copy
# without them encodes the KB afresh and prints the same bytes
test "$(files smoke-model)" = "history.csv kb_rows.npz manifest.json params.npz "
cp -r smoke-model smoke-bare
rm smoke-bare/kb_rows.npz
hetlink disambiguate --bundle smoke --model smoke-bare \
  --snippets smoke/snippets.json --top-k 3 > bare.json
cmp ranked.json bare.json
# a model trained on another kb.npz: exit status 1 and one stderr line
status=0
hetlink eval --bundle smoke-ingest --model smoke-model --snippets smoke/snippets.json \
  > /dev/null 2> other.err || status=$?
test "$status" -eq 1
test "$(wc -l < other.err)" -eq 1
grep -q '^error: smoke-model was trained on a kb.npz of sha256 ' other.err
# a bundle whose manifest lists its node count as a string: exit status 1 and
# one stderr line that starts "error: "
cp -r smoke smoke-bad
python3 -c 'import json; p = "smoke-bad/manifest.json"; m = json.load(open(p)); m["nodes"] = str(m["nodes"]); json.dump(m, open(p, "w"))'
status=0
hetlink eval --bundle smoke-bad --model smoke-model --snippets smoke/snippets.json \
  > /dev/null 2> bad.err || status=$?
test "$status" -eq 1
test "$(wc -l < bad.err)" -eq 1
grep -q '^error: ' bad.err
# a bundle whose kb.npz is cut in half: exit status 1 and one stderr line
# that names it
cp -r smoke smoke-cut
head -c "$(($(wc -c < smoke/kb.npz) / 2))" smoke/kb.npz > smoke-cut/kb.npz
status=0
hetlink eval --bundle smoke-cut --model smoke-model --snippets smoke/snippets.json \
  > /dev/null 2> cut.err || status=$?
test "$status" -eq 1
test "$(wc -l < cut.err)" -eq 1
grep -q '^error: smoke-cut/kb.npz: ' cut.err
# a bundle directory that does not exist: exit status 1 and one stderr line
# that names its manifest
status=0
hetlink eval --bundle missing --model smoke-model --snippets smoke/snippets.json \
  > /dev/null 2> missing.err || status=$?
test "$status" -eq 1
test "$(wc -l < missing.err)" -eq 1
grep -q '^error: missing/manifest.json: ' missing.err
