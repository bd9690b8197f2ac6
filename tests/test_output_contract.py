"""Byte-for-byte output contract of the CLI on the corpus and on bad input.

Each case runs ``cli.run`` in-process and compares the exit code and the
sha256 of stdout against a recorded digest.  A refactor that changes any
printed byte, a representative, its order, a dimension or a reported
violation, fails here.

The corpus cases cover valid algebras, where the validators print nothing.
The bad-input cases run ``check`` on the broken algebras of
``conftest.BAD_FILES``, one per violation kind (``module_law`` comes with
``associativity``, the module law of the algebra acting on itself), and
``deform-check``/``extend`` on degree-2 cochains psi that break
associativity, graded symmetry or parity.  Text output echoes the
``--algebra`` argument, so the ``bad_inputs`` fixture writes those files
into a temporary directory and runs from inside it.

``shuffles`` and ``sign`` read no algebra; they are pinned on their own
arguments, each case named by its argument list.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from conftest import BAD_FILES, CORPUS_SPECS
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


def _bad_cases() -> dict[str, list[str]]:
    commands = {f"check-{name[:-5]}": ["check", "--algebra", name] for name in BAD_FILES if not name.startswith("psi")}
    for psi in ("psi_assoc", "psi_symmetry", "psi_parity"):
        for label, spec in (("truncpoly3", CORPUS_SPECS["truncpoly3"]), ("mixed", CORPUS_SPECS["mixed"])):
            for command in ("deform-check", "extend"):
                commands[f"{command}-{psi}-{label}"] = [command, "--algebra", spec, "--psi", f"{psi}.json"]
    out: dict[str, list[str]] = {}
    for label, argv in commands.items():
        out[f"{label}-text"] = argv
        out[f"{label}-json"] = argv + ["--json"]
    return out


BAD_CASES = _bad_cases()


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


BAD_DIGESTS: dict[str, tuple[int, str]] = {
    "check-badunit-json": (1, "23bf1ce1f7a084d2bf2b88eab7cf457bf1f5b86a8f83867cb9b84e89376dafa8"),
    "check-badunit-text": (1, "ad4a47f1192ba34fa899d5ec0d5a9d670a3b832b5004ab8c5912c28be82ee782"),
    "check-clifford-json": (1, "225a1e876b585967afe0fe8074092bcdeabf46cebf942198101fbde759cadedc"),
    "check-clifford-text": (1, "8133d6265d684220678928ec6626b3d808fb95273638647275ac068a49153fa2"),
    "check-nonassoc-json": (1, "e00f83be82d783f9eda1a0905c5e42e0cc11aa5011fa478516606b6ad8f21ade"),
    "check-nonassoc-text": (1, "378803479b38b284bdb9b22cc9bf7f7d1abebe57043def8a8bd994677808f236"),
    "check-parity-json": (1, "7907fab8de3e6ba9b53f555ef1f61303b30d6fb324baf01d02111ebc6abc4f20"),
    "check-parity-text": (1, "46ab499426d360b4341758a91d893e639d3366a3f3f4caa0cdaec90dd8a7e83f"),
    "deform-check-psi_assoc-mixed-json": (1, "b19fe469774d9c54cb8246a749954ed198c0ed059ee6a3df16fb257936e67a81"),
    "deform-check-psi_assoc-mixed-text": (1, "f5276411ab0b1a479823e7a04e7df6f8c59bacd325df461c6b7ff93f3b9b6142"),
    "deform-check-psi_assoc-truncpoly3-json": (1, "0c0d3eebb38d4fc0a201e428b1f0caab0e39ead9994ddaccc6cecb79aa28bca9"),
    "deform-check-psi_assoc-truncpoly3-text": (1, "27e57b08d3e530b4933c999862844788c7bc74809eb120342c5eedf2693bda1b"),
    "deform-check-psi_parity-mixed-json": (1, "82370af9dc5ba50db070ea0448661e6999dc490bd71c08565c92f2cfcf1070f1"),
    "deform-check-psi_parity-mixed-text": (1, "accffa0d69a93a2052c488ab3bc213b6a1355b70c77ae7b4af5f0c0473003f5b"),
    "deform-check-psi_parity-truncpoly3-json": (1, "bdce824a3ce8051ae127db4feb341d16008cdc6a027458c3ea65621f7017340e"),
    "deform-check-psi_parity-truncpoly3-text": (1, "da4f39af3b69ac66039c77ea51ab866ac6ffac677cc710107faa96e07b9c3b51"),
    "deform-check-psi_symmetry-mixed-json": (1, "3e1219d2f4a77c3d238e355623e433f8cea0931d234ade260824449eff8a754b"),
    "deform-check-psi_symmetry-mixed-text": (1, "d3a280aeb50789692a4f8eef6247e688dc88aeab0cc82ba2e2143fff5fe96b4c"),
    "deform-check-psi_symmetry-truncpoly3-json": (1, "b20e59f50cd6230cddcb6a9cb183acaa0239b9f2b426dc76c763e3f4dd805d82"),
    "deform-check-psi_symmetry-truncpoly3-text": (1, "bbbe28afb47820a755fe9b76d9db5dced79d8e8136dfd2058b6098d21257a2f6"),
    "extend-psi_assoc-mixed-json": (1, "46df39e8a83cdc21096c07596716de68a4ae889b71fbe0acd16977fe23ed3276"),
    "extend-psi_assoc-mixed-text": (1, "e4dfab45f3491d43089cc98167b74b2a9a5b981c633beb0852649d757ad46c1d"),
    "extend-psi_assoc-truncpoly3-json": (1, "109486d03650e4a1f3839fedb69e45411b7f044bb346766d119f723e28e4f3fb"),
    "extend-psi_assoc-truncpoly3-text": (1, "c3c530970d937caaa41fe51c662daab88bb329f238c747df27a8b541a3204ccd"),
    "extend-psi_parity-mixed-json": (1, "cb9c5bea237db58667bc685d6c593a427f2d752f9f2e5c769e34b99f63a37ecf"),
    "extend-psi_parity-mixed-text": (1, "aec86e50fdca2b01e0cebb4b538218fb56581e0eb6d27780d8c7c6dc9daf2ef8"),
    "extend-psi_parity-truncpoly3-json": (1, "3d5088710c43b929bba5a544723cbc560f2bf9a87f0701456ae05c2cbe6e8daa"),
    "extend-psi_parity-truncpoly3-text": (1, "07a56d725d5e3a0d9a63c9d9e7f2e6d5e7f2086e040d8c1f04b0edac3b91e66c"),
    "extend-psi_symmetry-mixed-json": (1, "daf9cd1baec38b9aae59a15a248611406a435ea84d3d611fcf7886e7b0573667"),
    "extend-psi_symmetry-mixed-text": (1, "ec63f7e0d194d711c66bbe0960e12425a2f61e35e44808e784575bec4f886112"),
    "extend-psi_symmetry-truncpoly3-json": (1, "b3239a9057f21ff24768bf4de56c3180d3d2733cd1dd166510cdf047561ac8a1"),
    "extend-psi_symmetry-truncpoly3-text": (1, "d2fe13b84dc4f9de0730ab995a8f7856a20c54fdaff72b25b54ba1985749e14c"),
}


def test_every_bad_case_has_a_recorded_digest():
    assert sorted(BAD_DIGESTS) == sorted(BAD_CASES)


@pytest.mark.parametrize("case", sorted(BAD_CASES))
def test_bad_input_output_is_byte_identical(case, bad_inputs):
    assert run_digest(BAD_CASES[case]) == BAD_DIGESTS[case]


ARGUMENT_DIGESTS: dict[str, tuple[int, str]] = {
    "shuffles 4 2": (0, "d6f6ea92d2977a9022424d86f2def02de0d85511ea5b4ed97e65ab25fda51699"),
    "shuffles 5 1": (0, "cea1d91c86386faee5660528f67324b9b220bc28f6cdbfa5cf2696ef0cb5d24f"),
    "shuffles 16 8": (0, "990bbc31cba4db7a734f9505fc93c18f451b25226d86bf14b7f6c15dc8daad35"),
    "sign --perm 3,1,2 --parity 0,1,1": (0, "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28"),
    "sign --perm 2,4,5,1,3 --parity 1,0,1,1,0": (0, "2be5b899a1b7fe4a747baeb088f0b554b89c67772af1a62dbb8b6b890e5e85aa"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_DIGESTS))
def test_shuffles_and_sign_output_is_byte_identical(case):
    assert run_digest(case.split()) == ARGUMENT_DIGESTS[case]
