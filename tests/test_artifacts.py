"""The shared artifact formats, byte for byte: LF provenance lines, CRLF CSV
rows, and indented sorted JSON with one trailing newline."""

import numpy as np

from iabplan import RateReport, Topology, build_link_table
from iabplan.artifacts import write_csv, write_json
from iabplan.linkbudget import Gains
from iabplan.metrics import SweepRow, sweep_to_csv


def test_write_json_returns_the_text_and_writes_it_with_a_newline(tmp_path):
    payload = {"b": [1, 2.5], "a": None}
    text = write_json(None, payload)
    assert text == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}'
    path = tmp_path / "x.json"
    assert write_json(path, payload) == text
    assert path.read_bytes() == (text + "\n").encode()


def test_write_csv_layout(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, {"z": 1, "a": "[1, 2]"}, ["i", "v"], "%d,%.3g", [[0, 1], [0.5, -np.inf]])
    assert path.read_bytes() == b"# a=[1, 2]\n# z=1\ni,v\r\n0,0.5\r\n1,-inf\r\n"
    write_csv(path, None, ["i"], "%d", [[]])
    assert path.read_bytes() == b"i\r\n"


def test_rate_report_csv(tmp_path):
    report = RateReport(scenario="iab_st", anchor_count=2, ue_ids=np.array([0, 3]),
                        r_ul_bps=np.array([12.5e6, 1e6 / 3]),
                        r_dl_bps=np.array([2e9, 7.25e6]),
                        gm_bps=123456789.0, n_excluded=1)
    path = tmp_path / "rates.csv"
    report.to_csv(path, header_meta={"seed": 7, "scenarios": '["iab_st"]'})
    assert path.read_bytes() == (
        b'# anchors=2\n# excluded_ues=1\n# gm_mbps=123.456789\n# scenario=iab_st\n'
        b'# scenarios=["iab_st"]\n# seed=7\n'
        b'ue_id,rate_ul_mbps,rate_dl_mbps\r\n0,12.5,2000\r\n3,0.333333333,7.25\r\n')


def test_sweep_csv(tmp_path):
    rows = [SweepRow(k=2, variant="access_ss", seed=1, gm_bps=123456789.0, n_excluded=0),
            SweepRow(k=4, variant="iab_st", seed=1, gm_bps=2.5e8, n_excluded=0)]
    body = b"k,variant,gm_mbps,seed\r\n2,access_ss,123.456789,1\r\n4,iab_st,250,1\r\n"
    path = tmp_path / "sweep.csv"
    sweep_to_csv(rows, path, header_meta={"seed": "0,1"})
    assert path.read_bytes() == b"# seed=0,1\n" + body
    sweep_to_csv(rows, path)
    assert path.read_bytes() == body


def test_link_csv_derives_snr_from_gain(tmp_path):
    # the BS->BS diagonal is skipped; an absent (-inf) gain writes -inf
    gains = Gains(bb=np.array([[-np.inf, -80.0], [-80.5, -np.inf]]),
                  bu=np.array([[-100.0], [-130.0]]), ub=np.array([[-100.0, -np.inf]]))
    path = tmp_path / "links.csv"
    build_link_table(gains).to_csv(path, header_meta={"seed": 1})
    assert path.read_bytes() == (
        b"# seed=1\nfrom,to,gain_db,snr_db,capacity_bps,exists\r\n"
        b"0,1,-80,58,9.9649438e+09,1\r\n1,0,-80.5,57.5,9.9646656e+09,1\r\n"
        b"0,2,-100,17,5.6066412e+09,1\r\n1,2,-130,-13,0,0\r\n"
        b"2,0,-100,17,5.6066412e+09,1\r\n2,1,-inf,-inf,0,0\r\n")


def test_topology_json(tmp_path):
    topo = Topology(grid_rows=1, grid_cols=1, block_size_m=100.0, street_width_m=20.0,
                    bs_xy=np.array([[0.0, 0.0]]), ue_xy=np.array([[2.5, -1.0]]),
                    street_segments=np.array([[-10.0, -10.0, 10.0, 10.0]]))
    path = tmp_path / "topology.json"
    text = topo.to_json(path)
    assert path.read_text() == text + "\n" == """\
{
  "block_size_m": 100.0,
  "bs_sites": [
    [
      0,
      0.0,
      0.0
    ]
  ],
  "grid_cols": 1,
  "grid_rows": 1,
  "street_segments": [
    [
      -10.0,
      -10.0,
      10.0,
      10.0
    ]
  ],
  "street_width_m": 20.0,
  "ues": [
    [
      0,
      2.5,
      -1.0
    ]
  ]
}
"""
