import json
import multiprocessing
import re

import pytest

import dqwalk.ensemble as ensemble_mod
from dqwalk.cli import main
from dqwalk.figures import FIGURES, reproduce_figure


def _read_csv(path):
    """(manifest, columns) of a series CSV, every value parsed as a float."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return manifest, {h: [row[i] for row in rows] for i, h in enumerate(header)}


@pytest.mark.parametrize("preset", sorted(FIGURES))
def test_preset_csv_and_json_carry_the_same_series(preset, tmp_path):
    for fmt in ("csv", "json"):
        rc = main(["reproduce", preset, "--maps", "1", "--workers", "1",
                   "--format", fmt, "--out", str(tmp_path / fmt)])
        assert rc == 0
    csv_names = sorted(p.name for p in (tmp_path / "csv").iterdir())
    json_names = sorted(p.name for p in (tmp_path / "json").iterdir())
    assert sorted(n.replace(".csv", ".json") for n in csv_names) == json_names

    csv_files = [n for n in csv_names if n.endswith(".csv")]
    assert csv_files
    for name in csv_files:
        manifest, columns = _read_csv(tmp_path / "csv" / name)
        payload = json.loads(
            (tmp_path / "json" / name.replace(".csv", ".json")).read_text()
        )
        assert manifest == payload["manifest"]
        assert set(columns) == set(payload["series"])
        for header, values in columns.items():
            assert values == [float(v) for v in payload["series"][header]]
    # plots and the preset manifest do not depend on the data format
    for name in csv_names:
        if not name.endswith(".csv"):
            assert (tmp_path / "csv" / name).read_bytes() == \
                (tmp_path / "json" / name).read_bytes()


@pytest.mark.parametrize("preset", ["fig5", "fig6"])
def test_preset_shares_one_pool_and_bytes_across_workers(preset, tmp_path,
                                                        long_walks,
                                                        pool_forks):
    # 130 maps are three blocks, counted a long walk, so two workers really
    # share each ensemble
    files = {}
    for workers in (1, 2):
        out = tmp_path / str(workers)
        reproduce_figure(preset, str(out), maps=130, workers=workers)
        # the four disordered ensembles share one pool, joined on return
        assert pool_forks == ([] if workers == 1 else [2])
        assert multiprocessing.active_children() == []
        files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files[1] == files[2]


@pytest.mark.parametrize("preset", sorted(FIGURES))
def test_serial_preset_forks_no_pool(preset, tmp_path, long_walks,
                                     pool_forks):
    # 65 maps are two blocks, which --workers 2 would share out as a long
    # walk
    reproduce_figure(preset, str(tmp_path), maps=65, workers=1)
    assert pool_forks == []


def test_single_block_ensembles_fork_no_pool(tmp_path, pool_forks):
    reproduce_figure("fig4b", str(tmp_path), maps=2, workers=2)
    assert pool_forks == []


def test_only_the_long_walk_of_one_kernel_call_forks(tmp_path, pool_forks):
    # 200 maps are four blocks, one kernel call: fig5's 50 steps are 10200
    # state cells and run in-process at --workers 2; fig6's 100 steps are
    # 20200, past POOL_MIN_CELLS, and are shared out
    assert 200 * 51 <= ensemble_mod.POOL_MIN_CELLS < 200 * 101
    reproduce_figure("fig5", str(tmp_path / "fig5"), maps=200, workers=2)
    assert pool_forks == []
    reproduce_figure("fig6", str(tmp_path / "fig6"), maps=200, workers=2)
    assert pool_forks == [2]


def test_two_walker_preset_draws_each_map_once(tmp_path, monkeypatch):
    # the separable ensemble evolves a and b for every map; the boson and
    # fermion ensembles and the single-walker sum are built from its rows
    real = ensemble_mod._family_masks
    seeds = []

    def counted(family, seed):
        seeds.append(seed)
        return real(family, seed)

    monkeypatch.setattr(ensemble_mod, "_family_masks", counted)
    reproduce_figure("fig4b", str(tmp_path), maps=70, workers=1)
    assert len(seeds) == 70 and len(set(seeds)) == 70


@pytest.mark.parametrize("preset", ["fig5", "fig6"])
def test_scan_draws_each_map_once_for_its_four_disorder_panels(
        preset, tmp_path, monkeypatch):
    # the ordered panel, a family of one, draws its one map with
    # generate_map; the first disordered panel draws each member once for
    # all four (`share_maps`)
    real_map, real_family = ensemble_mod.generate_map, ensemble_mod._family_masks
    maps, families = [], []

    def counted_map(*args):
        maps.append(args[-1])
        return real_map(*args)

    def counted_family(family, seed):
        families.append((len(family), seed))
        return real_family(family, seed)

    monkeypatch.setattr(ensemble_mod, "generate_map", counted_map)
    monkeypatch.setattr(ensemble_mod, "_family_masks", counted_family)
    reproduce_figure(preset, str(tmp_path), maps=70, workers=1)
    assert len(maps) == 1
    assert [size for size, _ in families] == [1] + [4] * 70
    assert len({seed for _, seed in families[1:]}) == 70


def test_reproduce_and_simulate_draw_one_qfi_curve(tmp_path):
    # fig2a's ordered walk, as a preset and as a simulate config: one plot
    # definition, so one polyline
    assert main(["reproduce", "fig2a", "--maps", "1", "--workers", "1",
                 "--out", str(tmp_path / "preset")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "qfi", "disorder": {"kind": "none"},
                               "steps": 100, "maps": 1}))
    assert main(["simulate", "--config", str(cfg), "--workers", "1", "--plot",
                 "--out", str(tmp_path / "sim")]) == 0
    preset, simulated = (re.findall(r"<polyline [^>]*>", path.read_text())
                         for path in (tmp_path / "preset" / "fig2a_qfi.svg",
                                      tmp_path / "sim" / "qfi.svg"))
    assert len(preset) == 1 and preset == simulated


def test_reproduce_figure_rejects_zero_maps(tmp_path):
    with pytest.raises(ValueError, match="n_maps"):
        reproduce_figure("fig2b", str(tmp_path), maps=0, workers=1)
    assert not list(tmp_path.iterdir())


def test_reproduce_figure_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="xml"):
        reproduce_figure("fig2a", str(tmp_path), fmt="xml", workers=1)


@pytest.mark.parametrize("text", [
    "fig4b: F(t) & <x^2> > 0", "p = 0.5", "<&>", "'quoted' \"text\"", "",
])
def test_svg_text_escapes_as_saxutils(text):
    from xml.sax import saxutils

    from dqwalk import svgplot
    assert svgplot.escape(text) == saxutils.escape(text)


def test_heatmap_image_is_the_matrix_bottom_up():
    # decode the PNG data URI: its size is the matrix's, the ramp's ends
    # sit at the maximum and at the zeros, and row 0 is the bottom scanline
    import base64
    import re
    import struct
    import zlib

    import numpy as np

    from dqwalk import svgplot

    matrix = np.zeros((3, 4))
    matrix[0, 1] = 2.0  # the maximum, drawn with the ramp's top colour
    matrix[2, 3] = 1.0  # half of it, the ramp's middle colour
    svg = svgplot.heatmap(matrix, [-1, 0, 1, 2], [0, 1, 2])
    (uri,) = re.findall(r'href="data:image/png;base64,([^"]+)"', svg)
    png = base64.b64decode(uri)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = {}, 8
    while pos < len(png):
        (size,) = struct.unpack(">I", png[pos:pos + 4])
        tag, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + size]
        assert struct.unpack(">I", png[pos + 8 + size:pos + 12 + size])[0] == (
            zlib.crc32(tag + data) & 0xFFFFFFFF)
        chunks[tag] = data
        pos += 12 + size
    assert list(chunks) == [b"IHDR", b"IDAT", b"IEND"]
    assert struct.unpack(">IIBBBBB", chunks[b"IHDR"]) == (4, 3, 8, 2, 0, 0, 0)
    raw = zlib.decompress(chunks[b"IDAT"])
    assert len(raw) == 3 * (1 + 4 * 3)
    lines = [raw[i * 13:(i + 1) * 13] for i in range(3)]
    assert all(line[0] == 0 for line in lines)  # filter type None
    pixels = np.frombuffer(b"".join(line[1:] for line in lines),
                           dtype=np.uint8).reshape(3, 4, 3)[::-1]
    assert tuple(pixels[0, 1]) == svgplot._RAMP[-1]
    assert tuple(pixels[2, 3]) == svgplot._RAMP[2]
    zeros = matrix == 0
    assert (pixels[zeros] == svgplot._RAMP[0]).all()
