"""Byte-level pins of the CLI's output files.

Each case runs one ``classpv`` command on seeded inputs and compares the
SHA-256 of every file it writes with the pinned digest, so a change that is
meant to move no p-value is checked mechanically to move no output byte.
Regenerate a pin only for a change that is meant to move outputs:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
        import test_cli_outputs as t; t.print_pins()"
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from classpv import example22_model, sample_gaussian_mixture, standard_2class_model
from classpv.cli import main

STATISTICS = ("plugin", "knn", "logistic", "typicality")
MODES = ("exact-swap", "valid-shortcut", "naive")


def _write_training(path: Path, d) -> Path:
    path.write_text("f1,f2,label\n" + "".join(
        f"{x!r},{y!r},c{b}\n" for (x, y), b in zip(d.features.tolist(), d.labels.tolist())
    ))
    return path


def _write_inputs(root: Path) -> dict[str, Path]:
    """A seeded two-class training set with 12 queries, and a three-class set."""
    query = root / "query.csv"
    points = np.random.default_rng(12).normal(size=(12, 2)) * 1.5 + np.array([1.0, 0.0])
    query.write_text("f1,f2\n" + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
    return {
        "train": _write_training(root / "train.csv", sample_gaussian_mixture(standard_2class_model(), [20, 20], seed=11)),
        "train3": _write_training(root / "train3.csv", sample_gaussian_mixture(example22_model(), [12, 10, 14], seed=13)),
        "query": query,
    }


def _cases() -> dict[str, list[str]]:
    common = ["--alpha", "0.05", "--alpha", "0.2", "--seed", "1"]
    cases = {}
    for statistic in STATISTICS:
        for mode in MODES:
            method = ["--train", "{train}", "--label", "label", "--method", statistic, "--mode", mode]
            cases[f"classify/{statistic}/{mode}"] = (
                ["classify", *method, "--query", "{query}", "--format", "csv", "--format", "json", *common]
            )
            cases[f"crossval/{statistic}/{mode}"] = (
                ["crossval", *method, "--format", "csv", "--format", "json", "--format", "svg", *common]
            )
            if statistic != "logistic":
                method[1] = "{train3}"
                cases[f"crossval3/{statistic}/{mode}"] = ["crossval", *method, "--format", "csv", *common]
    lattice = ["--grid-points", "61", "--format", "csv", "--format", "json", "--format", "svg", *common]
    cases["region-map/model"] = ["simulate", "region-map", "--model", "example22", "--mc-samples", "2000", *lattice]
    cases["region-map/train"] = ["simulate", "region-map", "--train", "{train}", "--label", "label", *lattice]
    for model in ("example22", "standard2"):
        cases[f"convergence/{model}"] = [
            "simulate", "convergence", "--model", model, "--schedule", "30", "60", "--queries", "15",
            "--mc-samples", "2000", "--format", "csv", "--format", "json", "--seed", "1",
        ]
    return cases


def _digests(name: str, root: Path) -> dict[str, str]:
    """Run case ``name`` in ``root`` and return {file name: SHA-256} of what it wrote."""
    inputs = _write_inputs(root)
    out = root / "out"
    argv = [a.format(**inputs) for a in _cases()[name]] + ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def print_pins() -> None:
    """Print the current digests of every case in the layout of ``PINS``."""
    for name in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {_digests(name, Path(tmp))!r},")


PINS = {
    'classify/plugin/exact-swap': {'classify.csv': 'f19e7f3745a17c8cc43356c1258d0fd023aa1399a2379bb45a377b60a158a65d', 'classify.json': 'c1262893d62dd07cb5d266a2f03ac63b65295ced5fd1f3672ba68141b04cafc2'},
    'crossval/plugin/exact-swap': {'crossval_pvalues.csv': '73612d8643590ccac2b4e0f09c26dfc74cea991e81001d0f2ecb7131025ebfba', 'crossval_summary.json': 'b99386d91a45fd1555902c71a3a915413b661af6d1dc6ae9b3ab9f1e135744f7', 'inclusion_alpha0.05.csv': 'e8057c113c4f55b2b13e74ccc96f0d660464662ac2f4653aae1c388fc3f70632', 'inclusion_alpha0.2.csv': 'a61a2de77c8aecce8c0ac10ac6611adfa8671a09d15ffe62d0cf3baa2ebc8a04', 'pattern_alpha0.05.csv': '6266c2bec23f0f1b679e3a9accdf661bf338b4fc773e8685f37847413b229eac', 'pattern_alpha0.2.csv': 'c4054c52858ae40968ce244fa731c48c1e732be68a5c858c66e9766f6791e3ce', 'pvalue_chart.svg': '1062ecaad7fc183ecce83464d2979c6e415478a8ed84a3ea570572f66ffcb66c', 'region_chart_alpha0.05.svg': 'd5c0cf3cb4046be519b51761fb7a0cfd86a8681d74111137d3473c2471d0dbd7', 'region_chart_alpha0.2.svg': 'b76e7baa2aabe2c20206b1781c1b048614c76d8c112d5deb6ecafa24395d2fe7', 'roc_curves.csv': '8dcd46d427809816ad0f1fb115d8637a7be0a113a1782d0d97f578a4f1371b19', 'roc_curves.svg': '3b7ddb8e68dca16d92f9a34119adc03c53b5439d77361d974defaddd07281ecc'},
    'crossval3/plugin/exact-swap': {'crossval_pvalues.csv': '5acaffa04c345b2657e8f32fa501218ee766fb546d30a7831876f8fe96e83f9f', 'inclusion_alpha0.05.csv': 'f10b250e627c1da5aa72838a6695c059a6ce8da184ac126ea855b845b23e6b95', 'inclusion_alpha0.2.csv': '1f73000a25b6b3a1da414138c33f5d1223a04b6705444a58232b4aedfff7b1e8', 'pattern_alpha0.05.csv': '5624eb068c4fad3c875c0085886a9aa7803ccc469904f087c9ff91c526362627', 'pattern_alpha0.2.csv': '838f1040327248582bb73cdfa0ab280039087d675c2961fb6d376da58c5b07bb', 'roc_curves.csv': 'c264ab8233c9a8f4517e65e1e914814e97210b09baaa59a789b6abb92713fa24'},
    'classify/plugin/valid-shortcut': {'classify.csv': 'c77ed595be05155509fc855a881fe67d6ba1c83bf530afbf494447ee48b703d5', 'classify.json': '2f6cad598a617da44cf591f8df4df9fdb4858d3a19e92aab92fc4ff3d3b9318a'},
    'crossval/plugin/valid-shortcut': {'crossval_pvalues.csv': 'd5d307fe40b0fdf293b2f9b0a2e3d42a975d0d0a32102fb2efae5a28bd1e4678', 'crossval_summary.json': 'c40bfcc4c9829d1bd84cbc2f25f07e2c11ec4a72e7fa92a7e6ef31568eab972b', 'inclusion_alpha0.05.csv': 'e8057c113c4f55b2b13e74ccc96f0d660464662ac2f4653aae1c388fc3f70632', 'inclusion_alpha0.2.csv': 'a61a2de77c8aecce8c0ac10ac6611adfa8671a09d15ffe62d0cf3baa2ebc8a04', 'pattern_alpha0.05.csv': '6266c2bec23f0f1b679e3a9accdf661bf338b4fc773e8685f37847413b229eac', 'pattern_alpha0.2.csv': 'c4054c52858ae40968ce244fa731c48c1e732be68a5c858c66e9766f6791e3ce', 'pvalue_chart.svg': 'e0547e41237de99407c743d5f4bcb4de6fb80cba1168bba747cb0b40874abeea', 'region_chart_alpha0.05.svg': '1af8c95b10b04d44eda4b19c87e61ee5a05193570eefe68aee9729ba26054507', 'region_chart_alpha0.2.svg': '86cc8eb13b8ba97e0005fd5b01c4b838aa9747b8e3ee83aca9d2f80ab6dcbf9e', 'roc_curves.csv': '08d18b03fee2848d9651ecee088d0f2cab0ea097204f73acd2c83e0724b17d9c', 'roc_curves.svg': '8ced6791dfe215ee402a6d0bedeb0e127c40e57f9cb514272c8cdc87bfa020a2'},
    'crossval3/plugin/valid-shortcut': {'crossval_pvalues.csv': 'e8285617f447aa1e87d7e1ca9bc5367d822b9b5878b6b6cdcc38c07976fadbbf', 'inclusion_alpha0.05.csv': 'f10b250e627c1da5aa72838a6695c059a6ce8da184ac126ea855b845b23e6b95', 'inclusion_alpha0.2.csv': '1f73000a25b6b3a1da414138c33f5d1223a04b6705444a58232b4aedfff7b1e8', 'pattern_alpha0.05.csv': '5624eb068c4fad3c875c0085886a9aa7803ccc469904f087c9ff91c526362627', 'pattern_alpha0.2.csv': '838f1040327248582bb73cdfa0ab280039087d675c2961fb6d376da58c5b07bb', 'roc_curves.csv': '778700b5830578ab5d69cf7450402ec3b286fbdcd5419e5a3c116398a7b99cf2'},
    'classify/plugin/naive': {'classify.csv': 'bc16eb07d1a45bd52a62e22d47700c863dd40b8d4813665e2fbb7449f832bd2b', 'classify.json': '7cfe25a5e9c2f2082adfe3695d1e2e0e077d369e60edfd2f5f3ddbff60757711'},
    'crossval/plugin/naive': {'crossval_pvalues.csv': 'a95d2cd98c42d0d24c54c18c8add9ff3de5d4fcf9964382cf04724c52d4832b1', 'crossval_summary.json': '144da823ef9fa8262185b5501c9733845b11a2cc4c8518457d9b90afaf588521', 'inclusion_alpha0.05.csv': '30de3fbe921fe658e9fae7780adaf296a47c09da0d6cc8bfa70837d613d26197', 'inclusion_alpha0.2.csv': '3608c46cfec9f1728756cec99cee04dc5aadbc3c68e7f41edcc203b9a9f079d9', 'pattern_alpha0.05.csv': '2b8b4b1c99a4ec5d10f81b0af38b3733027b7d020b967526300866954100fce4', 'pattern_alpha0.2.csv': '800187048d831829abfbbcf45ce550ef1796fb4da065165d649e002f680d9c61', 'pvalue_chart.svg': '9c8a79d987b8a5a0fa74d098e1c924a73978aeed36f2f135a894107b7d23ae5c', 'region_chart_alpha0.05.svg': '169abfcf75d3fa0878c93d95d81fa9bc3e483e887efc83133b0d95688155c2c0', 'region_chart_alpha0.2.svg': 'a373a0c262bc1bb23ad13a3735e33e6f00f9d0133ccdc4b1f32ec12d5f5f24f7', 'roc_curves.csv': 'd5153c0789f0be4288db64c2ded4188490f2b7a91eeb3d8050d9210efe68a92a', 'roc_curves.svg': 'dff1d2a94947043064ea9774f63b691008dc020991dc01e2d90e6bf29ebd9832'},
    'crossval3/plugin/naive': {'crossval_pvalues.csv': '9d34bf92b26e030aec50e215acebea99d3cbea0cd32ecca3bbf4773e80a64985', 'inclusion_alpha0.05.csv': 'f10b250e627c1da5aa72838a6695c059a6ce8da184ac126ea855b845b23e6b95', 'inclusion_alpha0.2.csv': 'd497bd20254be96a3e1f093e689a3f38f0879dad9c7986261affad60023464df', 'pattern_alpha0.05.csv': '5624eb068c4fad3c875c0085886a9aa7803ccc469904f087c9ff91c526362627', 'pattern_alpha0.2.csv': 'abb636be908aadfab7864af1a29fc338e0104a2da4a032b89a4e95b693015d64', 'roc_curves.csv': 'c7e91fe3e3f0ed232446cd891c0b79a83361544ec29b5ff59f82a5935ad55711'},
    'classify/knn/exact-swap': {'classify.csv': '0f81214cf94d36d657584f5abd469621e199c325c6b22f66a03067e869365089', 'classify.json': '180ef5423b132b36281a6f92071b893aff5c9f2304ac76c228fb7341e4b5cf08'},
    'crossval/knn/exact-swap': {'crossval_pvalues.csv': 'de8bdf1c6adaff01ca643b9c8bf25423624c60f2c364263f5a1297f18464dd22', 'crossval_summary.json': '0d3e880ea4f0995cece8100f80493b0c3fa132c89a62a293170667aac1c21f7d', 'inclusion_alpha0.05.csv': 'f607df722bc70cea87f0550dcc23fa427d868f4032ada66a0eb7570eaad82d1a', 'inclusion_alpha0.2.csv': 'd049d41590db9b935ab367b1030fe01017aa5d6d899f19cf671c5c2ac964404b', 'pattern_alpha0.05.csv': '7171246b798a858bc537d01e39345618ee583ce9ebc07cb52a0f81d0ca2a14e9', 'pattern_alpha0.2.csv': 'a8f15167c3d886e896caf541b39b162a5406050490f9bec6c9780b9541a520dc', 'pvalue_chart.svg': '6b11de0ba1e0360239a51de6dd917bc568fe4069d85ae1cea0d0133b28dce319', 'region_chart_alpha0.05.svg': 'd35a4a9c2594d7ca9908b798301a0cae083a96dd7ab0d512ea86c2a0f3a5daf0', 'region_chart_alpha0.2.svg': '6a8fd9cc44cbf65bc0289ec4b074285b42b039d54fedd598cb8cb097bcb78c11', 'roc_curves.csv': '5d44d583e941910c11382ada05d615258f542957860b5b8639a1ae2c506284dd', 'roc_curves.svg': '328a11a67acd7a037ea416e4c202fa31abfd37e4e95184872aefeb5988175fcf'},
    'crossval3/knn/exact-swap': {'crossval_pvalues.csv': 'b7d9814dbf862318c2304b4e9836011f27422d9394a802f67dffdea57102e006', 'inclusion_alpha0.05.csv': 'f10b250e627c1da5aa72838a6695c059a6ce8da184ac126ea855b845b23e6b95', 'inclusion_alpha0.2.csv': '21a1d185a732b26a7d1dab17f86c3d3747ec23a28f2aa1079c2300099422a6de', 'pattern_alpha0.05.csv': '5624eb068c4fad3c875c0085886a9aa7803ccc469904f087c9ff91c526362627', 'pattern_alpha0.2.csv': 'a53afee829d65e39f360b86444636ddcf340a088e90836a5f1bf337c8cf53c7e', 'roc_curves.csv': '7094176f2ffa5ea1ea42a5dfe2b47fff5fa162e1e751d43ca84fef8eb8be6233'},
    'classify/knn/valid-shortcut': {'classify.csv': 'e0a99d4b9230828cb4b8e391b7d904fab45e045207e725d8f255b894c30a7caf', 'classify.json': '1c67f6e3ab1a633533dfb19bf6d2f16e4db827f56efd46f6f4df319dc9ffeb38'},
    'crossval/knn/valid-shortcut': {'crossval_pvalues.csv': '84ef81590014b93206516d2b384281f83a5e0d3cae6233967047e872bc0b8008', 'crossval_summary.json': '67966c923e92362c0043dee9c2a3a9971b73c20d62bdb35efa08814518d91f65', 'inclusion_alpha0.05.csv': 'f607df722bc70cea87f0550dcc23fa427d868f4032ada66a0eb7570eaad82d1a', 'inclusion_alpha0.2.csv': 'b4b49c3ef5bdddea0532da3e7569d1d001500ceee0e0380ab39e803ecba377b8', 'pattern_alpha0.05.csv': '7171246b798a858bc537d01e39345618ee583ce9ebc07cb52a0f81d0ca2a14e9', 'pattern_alpha0.2.csv': 'a9b9741cdc0f1729e19cd9d3bcf0a478e5b210df7191c9d773a2ce9f30c39462', 'pvalue_chart.svg': 'a2213690d9ce3414bf1a2e844e681439cd3b61235a7eb5d22d30de9f9de27a8f', 'region_chart_alpha0.05.svg': 'd35a4a9c2594d7ca9908b798301a0cae083a96dd7ab0d512ea86c2a0f3a5daf0', 'region_chart_alpha0.2.svg': '2535872866698b50424df22a2a9803560a613f6f5adc763bc158b5577154320b', 'roc_curves.csv': '75f37e366876681ea46f96964056dd949a55103f1f86877e31859f36b8841cf4', 'roc_curves.svg': 'a665dfce4f40c2b6f9985e93a0d80303b90920880a5db60bc129c433b1389aba'},
    'crossval3/knn/valid-shortcut': {'crossval_pvalues.csv': 'b4a66d076bbfb7880e9d95b4d63838b2a9b7001000654b095631455ab0e82d23', 'inclusion_alpha0.05.csv': 'f10b250e627c1da5aa72838a6695c059a6ce8da184ac126ea855b845b23e6b95', 'inclusion_alpha0.2.csv': '6646b3b5243d4db5b0095444b4165907a46a4d1e484ce3edb6b13215c7068641', 'pattern_alpha0.05.csv': '5624eb068c4fad3c875c0085886a9aa7803ccc469904f087c9ff91c526362627', 'pattern_alpha0.2.csv': 'b2971316d433b1969b5595873e233f1aef17d69aceca3e833430abb9809acc16', 'roc_curves.csv': '8c8bb2d1ceb8ec80f504c68372015447333bfa23d721a7e6a7a06d62115578fe'},
    'classify/knn/naive': {'classify.csv': 'd04626f358fb6a161a67a24ad32dc440ef48a46de4891143a0492ff0f01b0e4d', 'classify.json': '5663d54d4811d2424b0dc9d8c6c4f6144e06633fd771c69a96949c22277c92c8'},
    'crossval/knn/naive': {'crossval_pvalues.csv': '7b1b7f56921bf9b1206f259580d7994123ecc56b4e33479cb4565e0940ed33e7', 'crossval_summary.json': '12e515c7a72b2c8b4d5a8dcdd5d3e8fd4f96b47449537e889e7fad0507d7aab4', 'inclusion_alpha0.05.csv': 'f22d5b7e421292cb4ce46e285b94c9f3107188760c07c9536764f2baf8bd228f', 'inclusion_alpha0.2.csv': '2c296ed5e50698ac42abc30a9c5cb5c37346039ecc49ad1551dc827a0e295b95', 'pattern_alpha0.05.csv': '47a5cde0b47f6ccb81ab7fbe31b4097f0bd35c3e4751c37f75300320dfbe4965', 'pattern_alpha0.2.csv': 'b554456eba046bc5b4db70246e9dfeb4bfba45b1bced104c3d7d5026bfecc52b', 'pvalue_chart.svg': '0efc0d879086ef645d975fe5d59e4ea6a2139be31a935f0aec32034986c9b590', 'region_chart_alpha0.05.svg': '995dd7f922c2ce820161bbd4bb62ae4d3b1a4d7a492a75608cf6eb4752e31f72', 'region_chart_alpha0.2.svg': '1a65afec1428551670969500ca55daaac1d4cad298c5426cf44380703d6c9a9c', 'roc_curves.csv': '15b81859bcbd3cd4bbe42655d8f054c1b5755e706a8500572ed1e1f8640810e6', 'roc_curves.svg': 'bed26cfac7635154030608ec3c2f32c74a190639a25aa8f235f6d50d982e2079'},
    'crossval3/knn/naive': {'crossval_pvalues.csv': 'd266fd407b186342efd1858548712cd4a551eaa88132915915b785003fb30aa6', 'inclusion_alpha0.05.csv': 'f10b250e627c1da5aa72838a6695c059a6ce8da184ac126ea855b845b23e6b95', 'inclusion_alpha0.2.csv': '21a1d185a732b26a7d1dab17f86c3d3747ec23a28f2aa1079c2300099422a6de', 'pattern_alpha0.05.csv': '5624eb068c4fad3c875c0085886a9aa7803ccc469904f087c9ff91c526362627', 'pattern_alpha0.2.csv': 'a53afee829d65e39f360b86444636ddcf340a088e90836a5f1bf337c8cf53c7e', 'roc_curves.csv': 'f57d5b7d16e2af4b5996a2a3fd932af6f6df29f4c98dba0c0da39ac26357ae63'},
    'classify/logistic/exact-swap': {'classify.csv': '4e7cea4fec7b749ca73df491fb23ee09843773bb44466c552c6e3d229fb6e8e7', 'classify.json': '9cb2ffa743bb6ccab8170ec36006e1313320677fc752fc97633f2cf53e92bac9'},
    'crossval/logistic/exact-swap': {'crossval_pvalues.csv': 'f2769ef2653a1f700c45ccee8624621ddfdea91679dc0471bd350a6e1eb2f415', 'crossval_summary.json': 'e58ac41c5214ec44883a1474682f7005e1d8568901b9bf57c1ee5eeebf7e822a', 'inclusion_alpha0.05.csv': 'ba1b843f0d3fa33c6a165e90fd06b728e52a8de551b7ff97cf2a883c05aa92f0', 'inclusion_alpha0.2.csv': '2c7338e304eb56dbc9f834f7a9a389fae595e728d6fed635473caa5c6030ef10', 'pattern_alpha0.05.csv': 'c2fae31e090d5b0d97968c60ec521d4891f08924b5bfa202bb9baececa4646f0', 'pattern_alpha0.2.csv': '6455dc8254b0ee1d8c0ac19d946e910eb18c2958a47953bf6bd1eecc2c827b31', 'pvalue_chart.svg': '486fed801f04330e5cf03b0b1e6bbe9749509a1bb67150edd3dc7576674937be', 'region_chart_alpha0.05.svg': 'd7e1425a75d85a5eedd112a15da783c72fbb55c8c2f3272f1a6d1daf82056d03', 'region_chart_alpha0.2.svg': '13bf743251c6127b0fb9b7bf98b9028f70a67a0a1d7c3aeb369f6c6a608cc391', 'roc_curves.csv': '43b921e57a2938933dd1e0ee8eb6bea005fcb78466d5988ca0b38b6a7860a965', 'roc_curves.svg': '031f72a08c170187d5cdd0efd6bcbb52108f3e1dacb84527ac2fc16ae539bdaa'},
    'classify/logistic/valid-shortcut': {'classify.csv': '17290adde8535a361722824385bbe66d0aafd63a7df961a6542fdb4c16f46098', 'classify.json': '3a5c0d0ee5655b9f36deea96553ce87261dc0b15ef2464a39f950b936a2ed3b1'},
    'crossval/logistic/valid-shortcut': {'crossval_pvalues.csv': '526c8f3f39305723187f204589fb7d318b4471b85ffdd534c39b728c6d667ca5', 'crossval_summary.json': '5cc1fa0fab03b223a2270f1c7842ed9607f79f9a733c71c6f0ef40b1f1662308', 'inclusion_alpha0.05.csv': '85bee4cf9fce2219dd98ced4ecc61c777d33ff36c87eef898107413129f7236a', 'inclusion_alpha0.2.csv': '2c7338e304eb56dbc9f834f7a9a389fae595e728d6fed635473caa5c6030ef10', 'pattern_alpha0.05.csv': 'e089a6359414654a48ae873b390ea4635061a49c19c31aa79f4ba791a4984f98', 'pattern_alpha0.2.csv': '6455dc8254b0ee1d8c0ac19d946e910eb18c2958a47953bf6bd1eecc2c827b31', 'pvalue_chart.svg': '9e5ab56748b5c2d92903dab2a870fd3296a128702481170ce6738132e7a67db6', 'region_chart_alpha0.05.svg': '4c3d680040607967ecd1f75f697415bdbd93217e600412b6b6fe1fba1313aa78', 'region_chart_alpha0.2.svg': 'b81623f96c5abef94a6be85da6900ccf258bc96a677547c54fc24ad32ae06d5c', 'roc_curves.csv': '95900f421e125f4d816bca9d994b995db722b153bbe65ab998b4dda72c362650', 'roc_curves.svg': '11632cd09c784e81b0d21dfdce03817bc8fb294b940a1ccdf99e46caabfab8f3'},
    'classify/logistic/naive': {'classify.csv': '4e7cea4fec7b749ca73df491fb23ee09843773bb44466c552c6e3d229fb6e8e7', 'classify.json': '9cb2ffa743bb6ccab8170ec36006e1313320677fc752fc97633f2cf53e92bac9'},
    'crossval/logistic/naive': {'crossval_pvalues.csv': 'ff69de13360bd9e79ea5fd01963e0f71ad32b4ec412f9842b46b7ffcd6765b59', 'crossval_summary.json': '7c4e46c0209feb0f7f6a685761b275dd7f4374ac9a43394ec9aaea9f7f20a227', 'inclusion_alpha0.05.csv': 'ba1b843f0d3fa33c6a165e90fd06b728e52a8de551b7ff97cf2a883c05aa92f0', 'inclusion_alpha0.2.csv': 'a4e11e5b5cfe805e791a45388b9b33ff438cc498c8d249381771984b9a27eacd', 'pattern_alpha0.05.csv': 'c2fae31e090d5b0d97968c60ec521d4891f08924b5bfa202bb9baececa4646f0', 'pattern_alpha0.2.csv': 'ec44035f97a6e68ea9cb3c45ac5b2873d3fde4db57e6672c7d7844c637990e15', 'pvalue_chart.svg': '777c7c38c472854b436269dc08bae7bdccdf93e2e24a05621b2dc3b602ad65bf', 'region_chart_alpha0.05.svg': 'd7e1425a75d85a5eedd112a15da783c72fbb55c8c2f3272f1a6d1daf82056d03', 'region_chart_alpha0.2.svg': '03a351825e1e6caa1088235ac66f6310d32325f3189f84b531c757601252cdf8', 'roc_curves.csv': 'b10a0a45414054e7447e55df51a9cf279f59487c362de9d579a4aaaec6ef5e78', 'roc_curves.svg': '5a618b36047d3abd4fc7510ea0af4ba493af879057905e29f1cc2f6e2c495649'},
    'classify/typicality/exact-swap': {'classify.csv': 'b04a4aacf896cba389bf51158401a8a969e556454e8050c46c9ab5a31bc24ffd', 'classify.json': '029247ad2e0121c428fd1104e409ab41b1988649b2bf0195c02c1abc085af6df'},
    'crossval/typicality/exact-swap': {'crossval_pvalues.csv': 'af001c8434f78763e6008f5f80c5e021ee59b630a501167961703c84b89ca4bd', 'crossval_summary.json': 'b41eb914e2b372764da3a98eb771c0e0f2d35e16bc4957518c6c26a28141ca76', 'inclusion_alpha0.05.csv': '94a7d871421ba4c946d01ef59f22b74ac17b2d5987372b225f4203cb13bd4754', 'inclusion_alpha0.2.csv': '2cee810f2b41c0ee52d158b107dd3c37a238c291d6be3d00caa301d0874ac9eb', 'pattern_alpha0.05.csv': 'c0d697fe875b2dc9fbca2c95075791f55aa626db44ee2136d937b7d7cfa7ece7', 'pattern_alpha0.2.csv': 'b1463165ea414ab76b201482ca9a6f79b0ba820c5aba0e22b68dfa4053491e0b', 'pvalue_chart.svg': 'cdfd802d3f504078e6c63b49d8d7b3b32fccc49b7956490f7c09ae0372797905', 'region_chart_alpha0.05.svg': '8f401ca902e9c0de31c2d51ede9e789ecc7a051fe0adb2e8b8b3bfeadb2cdf02', 'region_chart_alpha0.2.svg': 'afb5e1448e8f306cb90359ec467518fe9bfc0897371b44b1fe5c864a54fce392', 'roc_curves.csv': 'f8befdecdc8d3888faa6da2c9d9bae9cc5c697cbf122cc178379338a9f98a032', 'roc_curves.svg': '53b3968867489bcaac58914f88bb567c39925ea6070f27159ae87b53687bf4d4'},
    'crossval3/typicality/exact-swap': {'crossval_pvalues.csv': '2fe2b2f2313571c54d9ba8e1fc66de0e92cc81ac3bd37a0a6d319b931640a8c1', 'inclusion_alpha0.05.csv': '04b5a06beaa5cf26d2c314d588ad6e13829dc06f7ee81c4f383e185f382d4d91', 'inclusion_alpha0.2.csv': 'e024db7665e03528ebde22e7aac7f3f2d09239ced516359a760ea3ab5bdec555', 'pattern_alpha0.05.csv': 'dff0f2c6d191eee6e72791bde2c28cb0f5182e243b6e07256e75661122f6fc67', 'pattern_alpha0.2.csv': '70ec61f59209efca840d16fb627818375778f2a303257e37d21f5401380be12e', 'roc_curves.csv': '8690c863e2f93dd299d9dc1ca6cd9a9efc18a045857eabe8512788d0e09315c9'},
    'classify/typicality/valid-shortcut': {'classify.csv': 'b04a4aacf896cba389bf51158401a8a969e556454e8050c46c9ab5a31bc24ffd', 'classify.json': '029247ad2e0121c428fd1104e409ab41b1988649b2bf0195c02c1abc085af6df'},
    'crossval/typicality/valid-shortcut': {'crossval_pvalues.csv': 'af001c8434f78763e6008f5f80c5e021ee59b630a501167961703c84b89ca4bd', 'crossval_summary.json': 'f7163ae7cc21633a7352df19263d9523ebe912edec66ffc8b0ece71f0d28a1e4', 'inclusion_alpha0.05.csv': '94a7d871421ba4c946d01ef59f22b74ac17b2d5987372b225f4203cb13bd4754', 'inclusion_alpha0.2.csv': '2cee810f2b41c0ee52d158b107dd3c37a238c291d6be3d00caa301d0874ac9eb', 'pattern_alpha0.05.csv': 'c0d697fe875b2dc9fbca2c95075791f55aa626db44ee2136d937b7d7cfa7ece7', 'pattern_alpha0.2.csv': 'b1463165ea414ab76b201482ca9a6f79b0ba820c5aba0e22b68dfa4053491e0b', 'pvalue_chart.svg': 'cdfd802d3f504078e6c63b49d8d7b3b32fccc49b7956490f7c09ae0372797905', 'region_chart_alpha0.05.svg': '8f401ca902e9c0de31c2d51ede9e789ecc7a051fe0adb2e8b8b3bfeadb2cdf02', 'region_chart_alpha0.2.svg': 'afb5e1448e8f306cb90359ec467518fe9bfc0897371b44b1fe5c864a54fce392', 'roc_curves.csv': 'f8befdecdc8d3888faa6da2c9d9bae9cc5c697cbf122cc178379338a9f98a032', 'roc_curves.svg': '53b3968867489bcaac58914f88bb567c39925ea6070f27159ae87b53687bf4d4'},
    'crossval3/typicality/valid-shortcut': {'crossval_pvalues.csv': '2fe2b2f2313571c54d9ba8e1fc66de0e92cc81ac3bd37a0a6d319b931640a8c1', 'inclusion_alpha0.05.csv': '04b5a06beaa5cf26d2c314d588ad6e13829dc06f7ee81c4f383e185f382d4d91', 'inclusion_alpha0.2.csv': 'e024db7665e03528ebde22e7aac7f3f2d09239ced516359a760ea3ab5bdec555', 'pattern_alpha0.05.csv': 'dff0f2c6d191eee6e72791bde2c28cb0f5182e243b6e07256e75661122f6fc67', 'pattern_alpha0.2.csv': '70ec61f59209efca840d16fb627818375778f2a303257e37d21f5401380be12e', 'roc_curves.csv': '8690c863e2f93dd299d9dc1ca6cd9a9efc18a045857eabe8512788d0e09315c9'},
    'classify/typicality/naive': {'classify.csv': 'b04a4aacf896cba389bf51158401a8a969e556454e8050c46c9ab5a31bc24ffd', 'classify.json': '029247ad2e0121c428fd1104e409ab41b1988649b2bf0195c02c1abc085af6df'},
    'crossval/typicality/naive': {'crossval_pvalues.csv': 'af001c8434f78763e6008f5f80c5e021ee59b630a501167961703c84b89ca4bd', 'crossval_summary.json': '7093b0420216026f276e34ae4cd56fe25dc64d51ba30a02b2f4d922d815db394', 'inclusion_alpha0.05.csv': '94a7d871421ba4c946d01ef59f22b74ac17b2d5987372b225f4203cb13bd4754', 'inclusion_alpha0.2.csv': '2cee810f2b41c0ee52d158b107dd3c37a238c291d6be3d00caa301d0874ac9eb', 'pattern_alpha0.05.csv': 'c0d697fe875b2dc9fbca2c95075791f55aa626db44ee2136d937b7d7cfa7ece7', 'pattern_alpha0.2.csv': 'b1463165ea414ab76b201482ca9a6f79b0ba820c5aba0e22b68dfa4053491e0b', 'pvalue_chart.svg': 'cdfd802d3f504078e6c63b49d8d7b3b32fccc49b7956490f7c09ae0372797905', 'region_chart_alpha0.05.svg': '8f401ca902e9c0de31c2d51ede9e789ecc7a051fe0adb2e8b8b3bfeadb2cdf02', 'region_chart_alpha0.2.svg': 'afb5e1448e8f306cb90359ec467518fe9bfc0897371b44b1fe5c864a54fce392', 'roc_curves.csv': 'f8befdecdc8d3888faa6da2c9d9bae9cc5c697cbf122cc178379338a9f98a032', 'roc_curves.svg': '53b3968867489bcaac58914f88bb567c39925ea6070f27159ae87b53687bf4d4'},
    'crossval3/typicality/naive': {'crossval_pvalues.csv': '2fe2b2f2313571c54d9ba8e1fc66de0e92cc81ac3bd37a0a6d319b931640a8c1', 'inclusion_alpha0.05.csv': '04b5a06beaa5cf26d2c314d588ad6e13829dc06f7ee81c4f383e185f382d4d91', 'inclusion_alpha0.2.csv': 'e024db7665e03528ebde22e7aac7f3f2d09239ced516359a760ea3ab5bdec555', 'pattern_alpha0.05.csv': 'dff0f2c6d191eee6e72791bde2c28cb0f5182e243b6e07256e75661122f6fc67', 'pattern_alpha0.2.csv': '70ec61f59209efca840d16fb627818375778f2a303257e37d21f5401380be12e', 'roc_curves.csv': '8690c863e2f93dd299d9dc1ca6cd9a9efc18a045857eabe8512788d0e09315c9'},
    'region-map/model': {'region_map.json': '348f6387d580ac71010508f4320d515fa7a9ee33a550f5698490b827343255de', 'region_map_alpha0.05.csv': '94137703f19b56f00024bab2ca9989ef16e4837180576843da357f638875a345', 'region_map_alpha0.05.svg': 'a73c2b8b5236a389edcc7b93a789dbe308a3110f71299162e6262f5d45a13860', 'region_map_alpha0.2.csv': '99b077beb9e9e1caa663c78ac11e29ff6edbbe8ac5010ab087a86e899cb9452e', 'region_map_alpha0.2.svg': 'a1ade10707dd075018310c52b261c672bfafaf2fda3e7e48cb03316e2a1fb348'},
    'region-map/train': {'region_map.json': '46d26a021242a6a018ecf07ef936bec45369eeaad52659ed66b91f84c029b45d', 'region_map_alpha0.05.csv': '0d19087b79220c041e871df34c84f5c16146cae4e72eeec4df051e7df73aeb56', 'region_map_alpha0.05.svg': 'be3dbe7cde9dfdff1138fe6d15651a2ac9d19a83c7bc2ba5707a3dd1d935d009', 'region_map_alpha0.2.csv': '0471663857b0b9c73fbdd7ea730e07650ad29cf861d8e23163e47905012f2886', 'region_map_alpha0.2.svg': '218b098183862a10ec7520a8755469fdcebc1ecacfc4b0ab4e084890698a9eef'},
    'convergence/example22': {'convergence.csv': 'df4881c617a1a7afbbfba00ffe0320e4056a6a11518d44cd341314db3f613382', 'convergence.json': '1143331b89245979bab622a575df4aebc0620c698c69e670587387926c353f23'},
    'convergence/standard2': {'convergence.csv': '4da9527c6f3576d13b2e2c88d21eea9c725553903bffa06288ecf15aac93eaa9', 'convergence.json': '84ae760f95e7e4a3e006cc887b769889dd051dcfc50dd5ec6a2de89e0ee14813'},
}


@pytest.mark.parametrize("name", sorted(_cases()))
def test_output_bytes_are_pinned(name, tmp_path, capsys):
    assert _digests(name, tmp_path) == PINS[name]
