"""Byte-for-byte output contract of the CLI on the corpus.

Each case runs ``cli.run`` in-process and compares the exit code and the
sha256 of stdout against a digest recorded before the cochain index was
consolidated.  A refactor that changes any printed byte, a representative,
its order or a dimension, fails here.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from conftest import CORPUS_SPECS
from superharrison.cli import run


def _cases() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for name, spec in CORPUS_SPECS.items():
        commands = {
            f"cohomology-{kind}-{degree}": ["cohomology", "--algebra", spec, "--degree", str(degree), "--kind", kind]
            for kind in ("harrison", "hochschild")
            for degree in range(4)
        }
        commands["deform-classes"] = ["deform-classes", "--algebra", spec]
        commands["derivations"] = ["derivations", "--algebra", spec]
        commands["verify"] = ["verify", "--algebra", spec, "--budget", "10"]
        for label, argv in commands.items():
            out[f"{name}-{label}-text"] = argv
            out[f"{name}-{label}-json"] = argv + ["--json"]
    return out


CASES = _cases()


def run_digest(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run(argv)
    return code, hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


DIGESTS: dict[str, tuple[int, str]] = {
    "exterior1-cohomology-harrison-0-json": (0, "dc3c5df6f02a1f88d0d58948848dbcbe6fb9e2c2b4ce3a2726ba27dbab2e21a8"),
    "exterior1-cohomology-harrison-0-text": (0, "8ad9bc2fbeb3920c68897f6c800bfa9c0cc1cc759d8eba44be8d979639f7321a"),
    "exterior1-cohomology-harrison-1-json": (0, "e05777609f0b01c6173d3ec0bf8f63e86bc9f669bd31942d7af18dc60c9dc712"),
    "exterior1-cohomology-harrison-1-text": (0, "910d1a6c50867eeffcd49bfaef24602204d2bfeb5b4a603a577f5849a5cace10"),
    "exterior1-cohomology-harrison-2-json": (0, "a03de06d41c9091907346ed19590e819ca6a0a1e87ee04f04526b44aea425c85"),
    "exterior1-cohomology-harrison-2-text": (0, "6a18fea463e6a8d05beaf2bb367f496e484f80f5c70a4dd37c61cebda56938ae"),
    "exterior1-cohomology-harrison-3-json": (0, "8063fbd782bad8842948c41d96a2cbe710ef4d04e31bed1f5a4a50872a01ce48"),
    "exterior1-cohomology-harrison-3-text": (0, "0a3a8759278b9368d1de4ea6917b9c9c0abbc505cfd8201d54883106292180c0"),
    "exterior1-cohomology-hochschild-0-json": (0, "799598c01866b5a438cb46de7766d1a4001bc7a6f26113ee448980f55e3437e2"),
    "exterior1-cohomology-hochschild-0-text": (0, "d19e1766205b0c04a20b4eeb6ccd627c0fb8c3878bacea9c4b9624b0f8f4992a"),
    "exterior1-cohomology-hochschild-1-json": (0, "7ce07cf5e0001c55dc6435d4bcebf4d4fc6204665cd54f9de5301e3cdc259fb3"),
    "exterior1-cohomology-hochschild-1-text": (0, "e9367c811efa0effa9fe5cdaff8f5c413d1f2463359422a7db6865a94058cea6"),
    "exterior1-cohomology-hochschild-2-json": (0, "bcf203c69f27b05d66574a80d5838e1ed7b7ad880d335c81efde9539cbe0ecc8"),
    "exterior1-cohomology-hochschild-2-text": (0, "9ad16a3e0c7bf0713781ca7c2c84fe7eb29e17b794a9e084fec0c68fb98aaee1"),
    "exterior1-cohomology-hochschild-3-json": (0, "41ea36768d15b0f0124cfa79540e25d8de66afce8b2a3d8ab17efc9f9e280fe0"),
    "exterior1-cohomology-hochschild-3-text": (0, "a7fe328717e852ab8ddf1df01f34132d8d87c42d15f596df7655485e717dede6"),
    "exterior1-deform-classes-json": (0, "6634f7089868497a4f706d128857ab8d8350a78f281f3abf1deec5c4c24d738f"),
    "exterior1-deform-classes-text": (0, "0f3872b409bad2c2c3655810adab94d547ffc9b0553e0af98643f66ab79a4c6c"),
    "exterior1-derivations-json": (0, "53d8291b16277360fd6faa6209e9c8592e70a27bc7f27315f8cb85de4e333b54"),
    "exterior1-derivations-text": (0, "102ab547c7ba4321fa61567bf48668a618d98501c3fec5e00b27d5f8307331c4"),
    "exterior1-verify-json": (0, "e5829df65c10d021434f33cbedbb694f452ce2ccfe0d87c61b2dc8a2fb339961"),
    "exterior1-verify-text": (0, "a4f3a0faa37ec1e943c33f410f1eeccd713cca57385504301db9b0c352fa9ec4"),
    "exterior2-cohomology-harrison-0-json": (0, "5d59ccad54232ac6604768ed2f0c73a3f034107f2ba4cc6f87deee659b179d33"),
    "exterior2-cohomology-harrison-0-text": (0, "e0c4a8d561828308335119fb544465933808ffcfb2bb5236467c83086d1f84de"),
    "exterior2-cohomology-harrison-1-json": (0, "4e571c24c4c0231d89dacaafc98bbff8e9ef3b8fb63eeba8d051e87f7fc94944"),
    "exterior2-cohomology-harrison-1-text": (0, "6b20f263c26b93b22e8ddb5b9baf6021a34e5edb6b3ab3a83f5d12ae364c01c3"),
    "exterior2-cohomology-harrison-2-json": (0, "5ab1c797bcc57cedb31313948d630873d224d5851a78033ebdec1c9382e4b1e9"),
    "exterior2-cohomology-harrison-2-text": (0, "f73e41fb0a94f2a10a08f7dd55b69624455bb55a870a0fbbcd2fadbfc5e0b986"),
    "exterior2-cohomology-harrison-3-json": (0, "e3ad279955477ef45c1ffc536ed7bbea0ff1c03b0105204198e1bcfa9bdd44ec"),
    "exterior2-cohomology-harrison-3-text": (0, "f6baa01f47bba79e48dbcb00af2bfb125aacc94bd75c7e543bddaf156b486a6e"),
    "exterior2-cohomology-hochschild-0-json": (0, "31b89d27e545113f99ebc4d7812edbc2c9f72e537292d465dd10ccb144470cfe"),
    "exterior2-cohomology-hochschild-0-text": (0, "b4b29972623836332cd59dc26619791c63327800337db13bd78618c7614bcd9c"),
    "exterior2-cohomology-hochschild-1-json": (0, "f3049548af46f0e0668a3176373a3d553388cb1946e9d24aeb8147a3f0699484"),
    "exterior2-cohomology-hochschild-1-text": (0, "5e8c739a89bce4b11f17e140e8181319f7673cf3c6218df754c57a001f98a3c4"),
    "exterior2-cohomology-hochschild-2-json": (0, "790cdd3d447ad568ab02f03159c30a375bb4a404bccea09b359eb796b565e214"),
    "exterior2-cohomology-hochschild-2-text": (0, "e74afdbe5b933d67b375c2106cd86d6a55837cad58a6e2b1a0deb5383ac672ce"),
    "exterior2-cohomology-hochschild-3-json": (0, "3e65239d021f93526caeee2e6da35f211b4dee888b120ff2d5ff74c29abbf6ea"),
    "exterior2-cohomology-hochschild-3-text": (0, "ea22d7027f9e23c579aeb4fdc417d1325395b141819f8b86a062fd83e45795e0"),
    "exterior2-deform-classes-json": (0, "8641855f9742558f58154e7a8b5f5d90a63f69a185edadea2d264552cd0a8788"),
    "exterior2-deform-classes-text": (0, "4ad0231fbb7a7929b09cec488a5cf781b3f03059da0dfaca5d9000bb1412f139"),
    "exterior2-derivations-json": (0, "193180a780031fa828abb097a28af9255cb65cd557602396795d59fffbcd05a5"),
    "exterior2-derivations-text": (0, "61658e4f3c4d6277915c629959ab1a11d534591fcec5e030947b7f2e92953037"),
    "exterior2-verify-json": (0, "b4883b97efddf8740f573927972c3c1e9881b23f563dc6f764ea0a4fac8d4e7f"),
    "exterior2-verify-text": (0, "52b243484424e4a419389df3d8771d3c0403d573dba5a79d33d496788670c613"),
    "mixed-cohomology-harrison-0-json": (0, "430fe970a9e92d435ce7c184094030ee10c23434362a0d82632ab97895ac5d45"),
    "mixed-cohomology-harrison-0-text": (0, "ca5e491fd237e60d18c535d65668adb5f60afc6523120b85e4274333ceea62d1"),
    "mixed-cohomology-harrison-1-json": (0, "b188441a3f9e28d08fdb70564467d748d46a840d45813e7c232f809eab6ba887"),
    "mixed-cohomology-harrison-1-text": (0, "b93e453b00d63384f6895558e2cd4062d3bc20f175a3cc38c98b9244c0e8b56c"),
    "mixed-cohomology-harrison-2-json": (0, "0b6fb76353deb3b824a4967d6a4448c168005c5ff3ababb626be097bddbab99a"),
    "mixed-cohomology-harrison-2-text": (0, "dcfa341802190689ced4d0d117c350dfde3f1173f2aa56e17865c0137842aa56"),
    "mixed-cohomology-harrison-3-json": (0, "a67a60c158451590f6488f734bb32c940f2d965c35cc7175cb4b14bc33213ce1"),
    "mixed-cohomology-harrison-3-text": (0, "0cf55a25cbfde2e5bac0835c864177a1ad40b44a4f502729047028d3bec3ef34"),
    "mixed-cohomology-hochschild-0-json": (0, "c325000f706d3375c716d3cf8612d2b4e639558f44b0ff8921b07dc5b860828d"),
    "mixed-cohomology-hochschild-0-text": (0, "d9875168e8b9d62e6ebb3a130a8006fb4c292a044bcc09ff656de5cf153f6038"),
    "mixed-cohomology-hochschild-1-json": (0, "c472a5625d76016f94f91aa2b7c0c94dc1e98ee2fe4d9b51f559233639f7a71e"),
    "mixed-cohomology-hochschild-1-text": (0, "102772373fb169a508c9904eca059894a5c4e02cdb05b7e9f637057c8e731028"),
    "mixed-cohomology-hochschild-2-json": (0, "515abca54c1558f811dc916ba3bb4cb3624020d4393b21ea429ddd027448bc59"),
    "mixed-cohomology-hochschild-2-text": (0, "334d2a576e0cb6083cebc50c4bf9b8f172ed123ab1bd82d4abb48f8af66b3d6d"),
    "mixed-cohomology-hochschild-3-json": (0, "53679282c3928363a4baf090b1ad57d2d346ea7824245f7bf3a838a16ab780e5"),
    "mixed-cohomology-hochschild-3-text": (0, "0e59bfc2be641cf75f7c339dc8e7830b3879c248918764e87fb5ed78bf7c0c4d"),
    "mixed-deform-classes-json": (0, "f09180655c82d87bad828de733d4411ecab13d00ec56c6912bf369eb08a6b865"),
    "mixed-deform-classes-text": (0, "6d4f0c273785f63fa8936f28ed86c22694c9822db44362229b4a2f00046807f9"),
    "mixed-derivations-json": (0, "53dcaf30dc07b38c3fa84909f074eedc4383bad89ef88f809af48b323f304735"),
    "mixed-derivations-text": (0, "9746d4476358229f6e9cdddde4968915365ae734f7fdc935d2406a1436c02e6b"),
    "mixed-verify-json": (0, "cfd4a3ad3958ed8bcc777830d5de7ab9a5e75af08bbfe6ce1e5feca581f8c37a"),
    "mixed-verify-text": (0, "52b243484424e4a419389df3d8771d3c0403d573dba5a79d33d496788670c613"),
    "truncpoly2-cohomology-harrison-0-json": (0, "9ea319c26006b78515fce6a60a61c6c00163c177d912a9c6f06a69e3fba1aace"),
    "truncpoly2-cohomology-harrison-0-text": (0, "9bee9b5e40ab378d351b480284639b1daa66c050f8f06703ab5fe21bd12da3e8"),
    "truncpoly2-cohomology-harrison-1-json": (0, "1798b22dd9e68a14911ef6e719ea0ce78859d3585c2716cd2b314d10d3776bba"),
    "truncpoly2-cohomology-harrison-1-text": (0, "4388f599faee1d272d2eec82a7c3b31189ad42dbdc2016edc325dfd99113f837"),
    "truncpoly2-cohomology-harrison-2-json": (0, "6632a4a6b2dc61d82919cfc7472258b0e15eb628237b185cc2b10fe62d04eff9"),
    "truncpoly2-cohomology-harrison-2-text": (0, "0070f71ec118cf5755d204c3b013f8453a670b7e2ebf85bbdcbcbeaaf571c6c1"),
    "truncpoly2-cohomology-harrison-3-json": (0, "b009abf8adf831c9bc93720af9b4faeddef8e255d011308792453a5c283483b4"),
    "truncpoly2-cohomology-harrison-3-text": (0, "8227ab61483a4ff3e6875ae7c4c02a8235310d1e799da141d8ae24cad79bafb9"),
    "truncpoly2-cohomology-hochschild-0-json": (0, "d8d3d364d25f7e26490b85da6daaa716572254deafb7246a344b20dc45cd4602"),
    "truncpoly2-cohomology-hochschild-0-text": (0, "47d8dd61c2d46322a17aafd18f632bae905e4f11de98ccd2e34922b2006f43a1"),
    "truncpoly2-cohomology-hochschild-1-json": (0, "52db2a19c1769ac50c4ca80d0cec90088b01a06b67b320bba46114b1b205ddf2"),
    "truncpoly2-cohomology-hochschild-1-text": (0, "f285ea04c7ae3ebcf0e5944312fb0c5f6128ddd9dde8f5ca75098dce1e538129"),
    "truncpoly2-cohomology-hochschild-2-json": (0, "cd464c029cbcc153508c121ee869a0a70a425d640e9319bc2599a630f53bfeb4"),
    "truncpoly2-cohomology-hochschild-2-text": (0, "67116c72c7c6e4a5ffc6a3c47f68db473d9d30619c7e524728b515452faf8073"),
    "truncpoly2-cohomology-hochschild-3-json": (0, "fc2653678ba8ad7de080816ada5bf3df7a83a50c87a5528ef77d8b2eb27b1fce"),
    "truncpoly2-cohomology-hochschild-3-text": (0, "c04d96138c8a004ba04d3be900cca561bbc2ee5c114f6d62c8c7ab4429d01a9e"),
    "truncpoly2-deform-classes-json": (0, "edd7f1d92fbdfeaeedd8d8140759ab461673a64dc0c7144af9ec1c0f08c9b309"),
    "truncpoly2-deform-classes-text": (0, "e8144d5a2857057dcca24f4ae29781cf80d2dd4a1fa922cfb490a65121414968"),
    "truncpoly2-derivations-json": (0, "1af9e0f9b6f084fbd015f3624a086909507d459a688196befa2c079fd646b74f"),
    "truncpoly2-derivations-text": (0, "1be035e8e69e0128c199443a2e455fd5abbd20c7d13f9f8dda6e9333937489ae"),
    "truncpoly2-verify-json": (0, "682c1f19ad0a5f70fef4da748bdfd285b5a002710767c9f64b5e0a6b01c13d7b"),
    "truncpoly2-verify-text": (0, "000d84fd8e2e1da9c0bdc2d88a51ce38b978fb046a7e2f9f06aeb2c468c32ff4"),
    "truncpoly3-cohomology-harrison-0-json": (0, "9aac145da61ef2f7ad554f539bc8ad0ca17c92bc2be6076fcb7a78a002b89fa4"),
    "truncpoly3-cohomology-harrison-0-text": (0, "048473a9885ff218120adf8bd9e8393719e2d7ed45ede38b7727dd49e37228cd"),
    "truncpoly3-cohomology-harrison-1-json": (0, "031ecb3f8a9c8fb565c1d8f896c4a74b933a90697a232c4556ede0ccc3415a7e"),
    "truncpoly3-cohomology-harrison-1-text": (0, "539605542c9493d5b6d520a138784f92ff670a4c3541e3c95ad983f71b3cb9e0"),
    "truncpoly3-cohomology-harrison-2-json": (0, "3bf9fbc69d9452fd2121c504c6387afcff5ea5b6dd6452c4b562df83a2542056"),
    "truncpoly3-cohomology-harrison-2-text": (0, "aedde22b338c08ea5edf5d7460e2b4b44cd10252f65703c4d2bcbdb287ef611c"),
    "truncpoly3-cohomology-harrison-3-json": (0, "8ab0c9b9b965136480ac764fbcf782874934f15f7dfab1ea9fe5fd4f1b6315c2"),
    "truncpoly3-cohomology-harrison-3-text": (0, "39e32f8415221a0a6352d1bd9efd49d98f0a9b079881fa884d28cef3e28f001d"),
    "truncpoly3-cohomology-hochschild-0-json": (0, "157a403bedfd8bec73a73c6186537d6d549e3dd2fb3cbe322c0b4814829cd909"),
    "truncpoly3-cohomology-hochschild-0-text": (0, "a6b8a23f605ee9f8115c5c76f48eb5690c204ffce7d84b98937f16c3b3cc8b9e"),
    "truncpoly3-cohomology-hochschild-1-json": (0, "9359f97552a9af389f9cd35b05ae1b53519b8f776576d8f91c7c16a226e7b3d2"),
    "truncpoly3-cohomology-hochschild-1-text": (0, "03fafa7c414fd2455402346a78a9a1af67eaef7446637bbd064e65533c658808"),
    "truncpoly3-cohomology-hochschild-2-json": (0, "ca8a83c469183b06d6e1769d36d6c66abb0dbb8bfe3c1defd04a1edf8675dd0a"),
    "truncpoly3-cohomology-hochschild-2-text": (0, "5dce05a11626d7fb4e05c3c1e56fa3a2e18de7c25d7bfe88d793204e2c614765"),
    "truncpoly3-cohomology-hochschild-3-json": (0, "97de1e26a01d681640a7a1677b181084af67cf3cf1b580446e747696a660ec75"),
    "truncpoly3-cohomology-hochschild-3-text": (0, "6ecffb55a524ea053a6665748325cffef7c7ff7dca663ae5f38b32eae8fda7cd"),
    "truncpoly3-deform-classes-json": (0, "5c96138ad88b4f95e7a0e40c0c95ec639f3b17eaad4a266c90be4ec9e7f5bcb7"),
    "truncpoly3-deform-classes-text": (0, "ab14495f87cad23f63a2a95881eb3a69ea609fe979c48bb17d95878c342cf937"),
    "truncpoly3-derivations-json": (0, "74faf3cb3c9031864f168b09e53077d7469379b3b5402d8aecba13df94c7313f"),
    "truncpoly3-derivations-text": (0, "b1debf2ef50231d210164d2a30603eebdcaf4e843b4596f3f54e1a5c3198bc1c"),
    "truncpoly3-verify-json": (0, "57f69e8cb1fc57b2a13fd4a50eef23ec8bedde3b794866b02545f62b1c5204a1"),
    "truncpoly3-verify-text": (0, "f27b684dcbbd973a5caee12ca517fc7bc5c2f9cfe54af70a73d886fec905b724"),
}


def test_every_case_has_a_recorded_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case):
    assert run_digest(CASES[case]) == DIGESTS[case]
