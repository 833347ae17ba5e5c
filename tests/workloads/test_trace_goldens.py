"""Bit-identity contract for trace synthesis.

Every application profile (seeds 1 and 7) and the worst-case trace are
pinned by a sha256 over their batch columns.  Any change to the generators
that alters a single simulated byte — an extra RNG draw, a reordered
column, a different nonce placement — fails here, so speed-ups to trace
synthesis must reproduce these digests exactly.

Three more tables pin the inputs the small ``GOLDEN`` traces leave thin:

- ``SIZED_GOLDEN``: the end-to-end benchmark's exact trace inputs at seeds
  1 and 2, plus a rewrite-heavy bzip2 trace (~1,400 non-duplicate rewrites
  at seed 1, where the 2,000-access trace has ~45);
- ``SERVE_GOLDEN``: every shard's batch columns and admission counts for
  the 8-shard service traffic at a reduced budget, with and without
  admission limits (a per-tenant quota and a slot cap).

Print every table's current digests with ``PYTHONPATH=src python -m
tests.workloads.test_trace_goldens``; rewrite a table only for a change
that is meant to alter the traces.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.serve.tenants import TenantRegistry
from repro.workloads.batch import AccessBatch
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import ALL_PROFILES, profile_by_name
from repro.workloads.tenants import TenantTrafficConfig, synthesize_shard_stream
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


#: ``(workload, accesses)`` pairs: the e2e benchmark's four trace inputs
#: (seeds 1-2) and a rewrite-heavy bzip2 trace.
SIZED_INPUTS = (("bzip2", 3_000), ("lbm", 7_500), ("blackscholes", 5_500), ("worst-case", 9_000))
SIZED_SEEDS = (1, 2)
REWRITE_HEAVY = ("bzip2", 12_000)

SIZED_GOLDEN = {
    "bzip2/3000/1": "fa067791453193503c8077aacc33fe1da3761ce34f7c97012b9af850c97bd2e8",
    "bzip2/3000/2": "081433475087f788c01aa5dac4fcebfcae409a0e03c83328152fb749d1f763d9",
    "lbm/7500/1": "e6b49f7692dc72ae1a57d1f5483b1484dddd30e40a975ed9e931f757d12418c1",
    "lbm/7500/2": "2bde865e6c65c2f5e9d789b22c542311f4e10040db9c011fbff979fbd08a6818",
    "blackscholes/5500/1": "d26f3c938f94b8a8d1c18dc4e1457654c951181469e1357af886622cb64ac460",
    "blackscholes/5500/2": "60fc2e9ecb786f487e8ba0913f79b8fb31b77f027db5189ee6a3821a5fd49f2d",
    "worst-case/9000/1": "5165137e291ec37340410a3ab2afbeada91b5c7861744c3c9ef6d50b79ca21a5",
    "worst-case/9000/2": "394fb6ce5e76276a8e560a6c87a8775361a06afb6d8d3136042bb9414f6fa86a",
    "bzip2/12000/1": "064be788c662ed480aaffdd582ab941cd8af7d99e5649ea379a7c36ebc9adce1",
    "bzip2/12000/7": "8ead4b20b9947f0d267ac41bb2a097f622f4cd8c23931cc0624443bf812eac4b",
}

#: The e2e serve workload's traffic (1M tenants over 8 shards) at a
#: reduced access budget; "limits" adds a per-tenant quota and a slot cap
#: so the deferred and rejected paths are pinned too.
SERVE_SHARDS = 8
SERVE_ACCESSES = 3_000
SERVE_LIMITS = {"open": (0, 0), "limits": (2, 40)}  # (tenant_quota, max_slots)

SERVE_GOLDEN = {
    "open/1/0": "9ace4b5160d9e73bf0b76e0e8134b9177dabb4b8bcebcfbbaafa8af4082db076",
    "open/1/1": "d31907bedae4c69ad1cdc682ffbb08f8d7b3cd034152059585486a2b78f497f5",
    "open/1/2": "db7494f6eff04069ecc8620a76086a6b62d69220f4bb2bd207e81b524fab2633",
    "open/1/3": "b2fdde39846a3baf653f7781dd53f5061c42a9c2062beef3a69aa17ffcb1789c",
    "open/1/4": "05d91fca9c4f86f589630be8b1bd0dc4fd3baa296bb41b6452c1caeb4c54a593",
    "open/1/5": "d372f4a04a2f51adf2c56431c2a72344684a214b90f3ea3cadcbb9027a84c575",
    "open/1/6": "18c50654e37ce3763d9ab5a73e1d3f032ebbfc5d396215604866e82c31f45bdc",
    "open/1/7": "cba826cd8be8355a797bb68a270bad45175999caae2caab654b164ac4fe94b45",
    "open/2/0": "8d6ba3117d021363aea6df3b1ca7c8252cd380b3c27915ee33a5166c9686a413",
    "open/2/1": "be5672dc3c0f33f024a77620f1deddce91562a659d3bda065916785f9fdaba3b",
    "open/2/2": "ff4b8fe026a979066346cad41787410a52f93a0150978f706d521cd76482ae3d",
    "open/2/3": "6a626bf6f0679e753daa56c26f1748bfc5ca5961a04a6ca3482958ad966e9c40",
    "open/2/4": "d15f63ead3fcb40e5a0de29e7701f51540a57491cbf3caff7c3722c5c5ebf403",
    "open/2/5": "7440145040133e065a121efdc480a252b34f7fe027bfdfbef457f27eb0c61a08",
    "open/2/6": "c01ce5a493ec2b733be66b14609a6934452cc5ba5e7eb3f00dc4cdc5e6aeada2",
    "open/2/7": "a25d21cdd0bdfbfbf167dff84e10a468fb7f448a299a2aadaf7babc264be9196",
    "limits/1/0": "7df168dbf3f6ce8d74f96573d58495cc599c2a596803503fcd9db5f96d00fa70",
    "limits/1/1": "2723894941850b4d7dd7a961c63e39a10b07fc4b9a94ff764b86ded6ed167186",
    "limits/1/2": "d7ef397e656840a6b9633329d8d14fb07463b889135dafbc10b995de003cd6cb",
    "limits/1/3": "947cb37e4661cfe18797d4ad543b8c8c76145497bab0447e29529726d65bdbb8",
    "limits/1/4": "823f09e119b80fab73870db56f0645ce109dcccd2fee46a512a6644f36430cad",
    "limits/1/5": "593c5cfb34ce5f9556367b9f3f2c39e48791a7d767db7da6cb7df021bca73475",
    "limits/1/6": "76c4ccecb75e5c3e7da9053d8c5ef4e8788082060e48592dca38772ea35e096f",
    "limits/1/7": "308f4eebeaec178897b3bd5a7be704e8ffef5b544cd6aba6e8488599a9e4e52b",
    "limits/2/0": "23982f4eb1de7f73ee0909d2ff64ab5bb7e12547a917f839adb42350c08dbdc7",
    "limits/2/1": "ed0a23a0e57b9ac1f100c85a2ea61a02cec779a7de67da1d317ad63be0a9c776",
    "limits/2/2": "916d1f31efbb7d91c29c44702f33767b24e17481aaa4c3b004fdbb62ab619213",
    "limits/2/3": "76f93d492208b4069bd09fd7ac0572de1968f58f0f7ef07f84c741428ff46e4c",
    "limits/2/4": "c3e9140e60a41543e46499d59b05e1d94659fd7b4e289d16066b032a91c15104",
    "limits/2/5": "b6168e13eaa112f634741b297729f45a8871355d5c353f9950c10f11258665fa",
    "limits/2/6": "5913f69c126062fa3d33c5d4e776ed8d246d71ef87aa4d4067fbeb15035db0d7",
    "limits/2/7": "78229ec05d214472ff62b68f1d32bb8c3471412e5731ae3834f1450a0184c2e4",
}


def batch_digest(batch: AccessBatch, header: str) -> str:
    """sha256 over ``header`` and every column of ``batch``."""
    digest = hashlib.sha256()
    digest.update(f"{header}|{batch.line_size}|".encode())
    for column in (batch.cores, batch.addresses, batch.gaps, batch.slots):
        digest.update(",".join(map(str, column)).encode() + b"|")
    for raw in (batch.ops, batch.persistent, batch.payload):
        digest.update(bytes(raw) + b"|")
    return digest.hexdigest()


def column_digest(trace: Trace) -> str:
    """sha256 over a trace's provenance and every batch column."""
    return batch_digest(trace.as_batch(), f"{trace.name}|{trace.threads}")


def _build(workload: str, accesses: int, seed: int) -> Trace:
    if workload == "worst-case":
        return worst_case_trace(num_accesses=accesses, seed=seed)
    return generate_trace(profile_by_name(workload), accesses, seed=seed)


def _trace(key: str) -> Trace:
    workload, seed = key.rsplit("/", 1)
    return _build(workload, ACCESSES, int(seed))


def _sized_trace(key: str) -> Trace:
    workload, accesses, seed = key.rsplit("/", 2)
    return _build(workload, int(accesses), int(seed))


def _sized_keys() -> list[str]:
    keys = [f"{w}/{n}/{seed}" for w, n in SIZED_INPUTS for seed in SIZED_SEEDS]
    return keys + [f"{REWRITE_HEAVY[0]}/{REWRITE_HEAVY[1]}/{seed}" for seed in SEEDS]


def _serve_digest(key: str) -> str:
    limits, seed, shard = key.split("/")
    quota, max_slots = SERVE_LIMITS[limits]
    config = TenantTrafficConfig(tenants=1_000_000, accesses=SERVE_ACCESSES, seed=int(seed))
    stream = synthesize_shard_stream(
        config,
        shard=int(shard),
        shards=SERVE_SHARDS,
        registry=TenantRegistry(config.lines_per_tenant, max_slots=max_slots),
        tenant_quota=quota,
    )
    counts = (stream.tenants_seen, stream.offered, stream.admitted, stream.deferred,
              stream.rejected)
    return batch_digest(stream.batch, "|".join(map(str, counts)))


def _serve_keys() -> list[str]:
    return [
        f"{limits}/{seed}/{shard}"
        for limits in SERVE_LIMITS
        for seed in SIZED_SEEDS
        for shard in range(SERVE_SHARDS)
    ]


def _keys() -> list[str]:
    names = [profile.name for profile in ALL_PROFILES] + ["worst-case"]
    return [f"{name}/{seed}" for name in names for seed in SEEDS]


def test_golden_covers_every_profile_and_seed():
    assert sorted(GOLDEN) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_columns_match_golden(key):
    assert column_digest(_trace(key)) == GOLDEN[key]


def test_sized_and_serve_goldens_cover_their_inputs():
    assert sorted(SIZED_GOLDEN) == sorted(_sized_keys())
    assert sorted(SERVE_GOLDEN) == sorted(_serve_keys())


@pytest.mark.parametrize("key", _sized_keys())
def test_sized_columns_match_golden(key):
    assert column_digest(_sized_trace(key)) == SIZED_GOLDEN[key]


@pytest.mark.parametrize("key", _serve_keys())
def test_serve_shard_columns_match_golden(key):
    assert _serve_digest(key) == SERVE_GOLDEN[key]


def _print_table(name: str, keys: list[str], digest_of) -> None:
    print(f"{name} = {{")
    for key in keys:
        print(f'    "{key}": "{digest_of(key)}",')
    print("}")


if __name__ == "__main__":
    _print_table("GOLDEN", _keys(), lambda key: column_digest(_trace(key)))
    _print_table("SIZED_GOLDEN", _sized_keys(), lambda key: column_digest(_sized_trace(key)))
    _print_table("SERVE_GOLDEN", _serve_keys(), _serve_digest)
