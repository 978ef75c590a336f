"""The sha256 of every output of one command-line chain over a seeded corpus,
pinned: ``convert`` to each format, ``baseline``, ``score`` of a JSONL pair and
of a column pair, ``populate`` in both exports, ``compile-gold --links``, and
``eval-kg`` under the four strategies and under two of them with
``--ceafe-drop-singletons``. The corpus spans more than two blocks of
``jsonl._BLOCK`` documents, so that the commands that map it fork workers.

The same table must hold on every Python the package supports and under every
``PYTHONHASHSEED``. Run as a script, with the package on the path, it checks
the table in this interpreter and exits 1 on a difference:

    PYTHONPATH=src python3.12 tests/test_digests.py
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from corefkg import jsonl
from corefkg.cli import main

from corpusgen import random_corpus

#: each call, its inputs and outputs named in the chain's directory, in the order run;
#: no call writes a file that an earlier one wrote
CHAIN = [
    "convert --in corpus.jsonl --out copy.jsonl",
    "convert --in corpus.jsonl --out gold.conll",
    "convert --in corpus.jsonl --out tree",
    "baseline --in corpus.jsonl --out pred.jsonl",
    "convert --in pred.jsonl --out pred.conll",
    "convert --in gold.conll --out columns.jsonl",
    "score --key corpus.jsonl --response pred.jsonl --json-out score.json",
    "score --key gold.conll --response pred.conll --json-out score-columns.json",
    "populate --in pred.jsonl --strategy cross --format ntriples --out kg.nt",
    "populate --in pred.jsonl --strategy in --format jsonl --out kg.jsonl",
    "compile-gold --in corpus.jsonl --links links.tsv --out gold.jsonl",
    *(f"eval-kg --in corpus.jsonl --gold gold.jsonl --strategy {strategy} --json-out eval{i}.json"
      for i, strategy in enumerate(("cross", "cross --no-coref", "in", "in --no-coref",
                                    "cross --ceafe-drop-singletons",
                                    "in --no-coref --ceafe-drop-singletons"), 1)),
]

#: the sha256 of each call's stdout (``-``) and of each file or tree it wrote, by call
PINNED = {
    'convert --in corpus.jsonl --out copy.jsonl': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'copy.jsonl': '3c91aae58fca36db9b708ec61ab9ab163824d9ebe6846031b8a97ae44c18791f',
    },
    'convert --in corpus.jsonl --out gold.conll': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'gold.conll': 'f487bdbc0f574f2fbe9b42881b8ef6bf4dab6af2bd38f2409fc16a3c6a12fd64',
        'gold.conll.tokens': '55fd88a0b778e152d26c3b0c361d44cf0bd9ad505dc1b4858eb951d9c9dbce90',
    },
    'convert --in corpus.jsonl --out tree': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'tree': '461c342c6d108fe02e64e8a6b71f9b328c7c308850cf8af9d6cbb5347f98684a',
    },
    'baseline --in corpus.jsonl --out pred.jsonl': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'pred.jsonl': '7b34d0d1ae0faf926d4999da513e6bd606ea4e1d7c093434914308f1917050ae',
    },
    'convert --in pred.jsonl --out pred.conll': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'pred.conll': '818e82ded506670686cf83e168b119a180090428cb387651af287ff12a43bb0c',
        'pred.conll.tokens': '55fd88a0b778e152d26c3b0c361d44cf0bd9ad505dc1b4858eb951d9c9dbce90',
    },
    'convert --in gold.conll --out columns.jsonl': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'columns.jsonl': '906b49997124e8cdc7ec943573b30c5e413023c77e6af050df566a818858b8d3',
    },
    'score --key corpus.jsonl --response pred.jsonl --json-out score.json': {
        '-': '2cb86e14d3f88378a6a632e7f9c287b158d7202bd25bca3537fb2bebb5785c84',
        'score.json': 'ce7e30971da5ab135b963162730025e45ae27169e5bc95ae3c383e73df4893ca',
    },
    'score --key gold.conll --response pred.conll --json-out score-columns.json': {
        '-': '2cb86e14d3f88378a6a632e7f9c287b158d7202bd25bca3537fb2bebb5785c84',
        'score-columns.json': 'ce7e30971da5ab135b963162730025e45ae27169e5bc95ae3c383e73df4893ca',
    },
    'populate --in pred.jsonl --strategy cross --format ntriples --out kg.nt': {
        '-': '4d0f22924a477fdfd4030a9ab345ac0aab66b7b2baf2769ea6fb0ed3a1e015bb',
        'kg.nt': 'bf6a86504cb9c8e3d4828d9a774d4f0ce506d676714cdd79b2455bed6f523940',
    },
    'populate --in pred.jsonl --strategy in --format jsonl --out kg.jsonl': {
        '-': '77ddfbdbe63a39ebedabd5f36a01f4f4d8fe8a41d5ac7552d96ed70d798bd511',
        'kg.jsonl': '2bf44e8d823b1fb0c1ea234bbb5810a8205cf4f1cdd61d3fbf4e0a7b12a72b46',
    },
    'compile-gold --in corpus.jsonl --links links.tsv --out gold.jsonl': {
        '-': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'gold.jsonl': '04d8c6318449aa3c418657b305c7b990d1407f204ebb692233bacce196bec824',
    },
    'eval-kg --in corpus.jsonl --gold gold.jsonl --strategy cross --json-out eval1.json': {
        '-': 'cbdc534379d739ce9be5f8a0bc50c8829a32b1be474d7b7d48d3aaa97de69e9c',
        'eval1.json': '76a0a5787bef062994c2cce0588f693086fa17040a7d9903f1019bdcab8ff5bc',
    },
    'eval-kg --in corpus.jsonl --gold gold.jsonl --strategy cross --no-coref --json-out eval2.json': {
        '-': 'f9411544704f925b5c425d5898ac1960159e17985b6b2b9dca405e597a47e62f',
        'eval2.json': '2722e0a6bc7b707a2453c817958abc1fca4bdd8ad6fab00921eb26f143087b3b',
    },
    'eval-kg --in corpus.jsonl --gold gold.jsonl --strategy in --json-out eval3.json': {
        '-': 'ff091d6bd473c9241c851d72d96cad6ac792cc831934da969f13e0d110a86f69',
        'eval3.json': '3a52e39d03a5867e7c30fa9ec78d4808bcfa3163409bc787ad20b382bca32448',
    },
    'eval-kg --in corpus.jsonl --gold gold.jsonl --strategy in --no-coref --json-out eval4.json': {
        '-': '1c102aaad7fdab20be4ee35d53cc33d994b5a2cb1686ea636236510311ec528e',
        'eval4.json': '5e6eb4bc42d03c9d932b104d95e0bd37ff338874f8fcbebe522c99ac43d26d47',
    },
    'eval-kg --in corpus.jsonl --gold gold.jsonl --strategy cross --ceafe-drop-singletons --json-out eval5.json': {
        '-': '16869ebf57d46e3ca31ae5d2154ecd794a26e9f5c3988143e824dec54147cbde',
        'eval5.json': 'a807608f34a501c91a23beedd90a9262f6d8ad4a2564578eb147dc659b3a6038',
    },
    'eval-kg --in corpus.jsonl --gold gold.jsonl --strategy in --no-coref --ceafe-drop-singletons --json-out eval6.json': {
        '-': 'c0f07083ff7c6f18e17d481ca642d7a945d741c1f716cd3151f8afe51baf98ec',
        'eval6.json': '3ff7afcecbc53516bdf062474abea72c1d42d657e335edd8db8fa77f69b2ffae',
    },
}


def corpus_files() -> dict[str, str]:
    """The chain's inputs: a seeded corpus of ``2 * jsonl._BLOCK`` documents, and
    an entity link for each of its mentions, to the lower-cased first word of its surface."""
    corpus = random_corpus(random.Random(40), n_docs=2 * jsonl._BLOCK)
    links = "".join(f"{m.doc_id}\t{m.start}\t{m.end}\t{m.concept_type.value}\t"
                    f"{m.surface.split()[0].lower()}\n" for doc in corpus for m in doc.mentions)
    return {"corpus.jsonl": jsonl.write_jsonl(corpus), "links.tsv": links}


def _sha256(path: Path) -> str:
    """The sha256 of a file's bytes, or of a tree's relative paths and their files' sha256."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    listing = "".join(f"{p.relative_to(path).as_posix()}\t{_sha256(p)}\n"
                      for p in sorted(path.rglob("*")) if p.is_file())
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


def digests(root: Path) -> dict[str, dict[str, str]]:
    """Run ``CHAIN`` in ``root``, an empty directory, and give the sha256 of each call's
    stdout and of each file or tree it wrote."""
    for name, text in corpus_files().items():
        (root / name).write_bytes(text.encode("utf-8"))
    out: dict[str, dict[str, str]] = {}
    for call in CHAIN:
        before = set(root.iterdir())
        stdout = io.StringIO()
        argv = [str(root / arg) if "." in arg or arg == "tree" else arg for arg in call.split()]
        with contextlib.redirect_stdout(stdout):
            status = main(argv)
        assert status == 0, (call, status)
        out[call] = {"-": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(),
                     **{p.name: _sha256(p) for p in sorted(root.iterdir()) if p not in before}}
    return out


def differences(found: dict[str, dict[str, str]]) -> list[str]:
    """Each call whose digests differ from ``PINNED``, with what it gave."""
    return [f"{call}: {digest!r}" for call, digest in found.items()
            if PINNED.get(call) != digest]


def test_every_output_of_the_chain_has_its_pinned_digest(tmp_path):
    assert differences(digests(tmp_path)) == []


def test_the_pinned_digests_hold_in_a_fresh_interpreter_under_another_hash_seed():
    from clirun import run_python

    done = run_python(__file__, hash_seed="4242")
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (0, "", "")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        faults = differences(digests(Path(scratch)))
    for fault in faults:
        print(fault, file=sys.stderr)
    sys.exit(1 if faults else 0)
