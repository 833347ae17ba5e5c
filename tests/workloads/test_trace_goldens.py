"""Bit-identity contract for trace synthesis.

Every application profile (seeds 1 and 7) and the worst-case trace are
pinned by a sha256 over their batch columns.  Any change to the generators
that alters a single simulated byte — an extra RNG draw, a reordered
column, a different nonce placement — fails here, so speed-ups to trace
synthesis must reproduce these digests exactly.

Print the current digests with ``PYTHONPATH=src python -m
tests.workloads.test_trace_goldens``; rewrite the table only for a change
that is meant to alter the traces.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads.generator import generate_trace
from repro.workloads.profiles import ALL_PROFILES, profile_by_name
from repro.workloads.trace import Trace
from repro.workloads.worstcase import worst_case_trace

ACCESSES = 2_000
SEEDS = (1, 7)

GOLDEN = {
    "bzip2/1": "2a815e930757e7b32bc29dbf11d5bddab2e9903d6778e7da3f9b75e0998d925e",
    "bzip2/7": "2a2dfd26a67d4f8da9d879fcebf1b1acf0995692a898e344b9501a9a65ce7871",
    "gcc/1": "94df797d04f006eccc279d8b6853b5eca5f0f8110af7e7e23bbbc45b911d7801",
    "gcc/7": "53fe876b33a7c0b3d6d596ae61f9d2acac81d8df526962d9683392206e5b16b4",
    "mcf/1": "e255eadf8a5055f714a7ee6a9337369dbdbeaba1a208defc998b7f3dba59c6a0",
    "mcf/7": "c8908f5be60c29165a65e2ed03c285b664ed9707cb464bd2f28cbfc709753d73",
    "milc/1": "62c162740f663c595039b95cbb16f497275a053ca7fc31cd5288379fa67dd86d",
    "milc/7": "1f8b9750968faf1158cd8f6450bde310b9e32e1232a330d243fe1ce85ab22578",
    "zeusmp/1": "11992e3c79d0ef78dd7275c5cfa2e005a684050aeec547294e54cea2bb959352",
    "zeusmp/7": "0995a81b7d43ab8e514f7e88ab52c715f9c4384315da4bebe77dbe333b966c31",
    "cactusADM/1": "36480ef417301e8f1ea1569ba2ae85069dadd5e4e651267409a3706de09efbe5",
    "cactusADM/7": "ae306ebb8723a69a0d9242adeaef1d8e72f771cae065623103e01f0f200ce83b",
    "gobmk/1": "1ae46bb4b568f69dbd92f3e55c0a495edade1edd2909f3567184b57f1edefd8a",
    "gobmk/7": "100eda9af3f3c81ad45fa66575bf6def943af5d0192412461bc911b2418a13f2",
    "hmmer/1": "3a50e2009f864c35ff0f4ad7b36d9fef76b67f6b2aa55717d757f17d07f1f005",
    "hmmer/7": "f8a1d727a30df96d560026bf860cef85c4ec923f569bb77087d7af0e6e6bfd47",
    "sjeng/1": "34309cabcfc90ff4276c0371a3a7cf1002ff58ed9b2219aa32072cc6766a076d",
    "sjeng/7": "7684b570986e9d076077ba50a50be87b03e30c7ca3aa04dedf5550382d44b7c8",
    "libquantum/1": "592fce11fec1201889ab8fe04698497c35868003892a71895f7884a052f31254",
    "libquantum/7": "ed5f1820a79894e288760b6115c83172ddf73f2913a5da10cfede26213bea05e",
    "lbm/1": "4a1e144256be9fbd1768c8643f7e80349694e8c42f0bda685d888f9f71e141fa",
    "lbm/7": "3e2b783e014e4c1e49a0dc95fa9825111413c96b2f32804f2140f028dfa9881d",
    "omnetpp/1": "9c96856f1649a3baf9c0dde8173955ec54bc70a6d95884e8f4afd2ff3762557c",
    "omnetpp/7": "ae186da98a3bc025ad2ccf7b12165741ad07cc41b1b52913b1a46f356528ed4c",
    "blackscholes/1": "e1bd0fd1f845324a7a94b1349b4e0230f8eaefc70fef19c75bdda93d84c7719a",
    "blackscholes/7": "1bcf4df7df6d13b3f57b9ac07ef1daa6104fd8cc0aebacff2ea608f824cc746a",
    "bodytrack/1": "df5a58c97b5058dc0aa7d7f603d0715fd82a198cef296df901da28b08296e57c",
    "bodytrack/7": "5b4de1680ed88f30d53c463397bf08beeed3cb778cbe735119e901aab967b829",
    "canneal/1": "38058ff88a65cee427743ac47662f0c55ec4edd406071b467f932c66848ca47d",
    "canneal/7": "9f014ae4f54c6c6bf7a2da24c60c262b1c50f4b8234d4c72d46e0e1e25344dd5",
    "ferret/1": "8855dd93527f45777ff2a7c8d73e34b97892099f211d2de5f835dbba77fb3ab2",
    "ferret/7": "d3875e5d4eb17b7d60e4847668ad44b78568dccd197f35892be481eb3b5d5e76",
    "fluidanimate/1": "c2b4bc47e8ee3c45826dfa6f47cfe576d7fffbdffd7d503788265770f534fa10",
    "fluidanimate/7": "014d4de1ce84d30bd87c01642cbb682c9f935879e6274251cf4ef7e4604f8db3",
    "streamcluster/1": "48285673a9f2fa32a3dfcd449ead80447ecdfa511063f4a7158a609af2746288",
    "streamcluster/7": "852311be639e5578c96127439eae432495bdc4de84ffede7ea61b4091caf6ebf",
    "swaptions/1": "d73a430d4c63299b57c730bceece53181f6dc5226fa903c65b2a5dc2fa15712c",
    "swaptions/7": "b8857655e91d254eb575054d6b97134de59492721feb4f212bd72625829b2fe5",
    "vips/1": "547aade987ffe39e71d7f8b8a1825ca9102a9c0d70694c76de38d81c36d811ce",
    "vips/7": "69b6e25a5d0783742324ed82a3f514fef9166ab6fa0612969c5c8411c74fcc7f",
    "worst-case/1": "5ce35de5931a6cacbe81ebd0338605a544a87c798b7577670a28deaa7d6e37a6",
    "worst-case/7": "6cab3c5fc872f16b3bef5c0aa56a320d12483f8f5b8e957235cc69bd72b0ff59",
}


def column_digest(trace: Trace) -> str:
    """sha256 over a trace's provenance and every batch column."""
    batch = trace.as_batch()
    digest = hashlib.sha256()
    digest.update(f"{trace.name}|{trace.threads}|{batch.line_size}|".encode())
    for column in (batch.cores, batch.addresses, batch.gaps, batch.slots):
        digest.update(",".join(map(str, column)).encode() + b"|")
    for raw in (batch.ops, batch.persistent, batch.payload):
        digest.update(bytes(raw) + b"|")
    return digest.hexdigest()


def _trace(key: str) -> Trace:
    workload, seed = key.rsplit("/", 1)
    if workload == "worst-case":
        return worst_case_trace(num_accesses=ACCESSES, seed=int(seed))
    return generate_trace(profile_by_name(workload), ACCESSES, seed=int(seed))


def _keys() -> list[str]:
    names = [profile.name for profile in ALL_PROFILES] + ["worst-case"]
    return [f"{name}/{seed}" for name in names for seed in SEEDS]


def test_golden_covers_every_profile_and_seed():
    assert sorted(GOLDEN) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_columns_match_golden(key):
    assert column_digest(_trace(key)) == GOLDEN[key]


if __name__ == "__main__":
    for key in _keys():
        print(f'    "{key}": "{column_digest(_trace(key))}",')
