import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bovw.corpus import (
    DatasetManifest,
    Image,
    ManifestEntry,
    image_size,
    load_image,
    load_manifest,
    save_image,
    save_manifest,
    select_classes,
    _pgm_header,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestManifest:
    def test_two_line_manifest(self, tmp_path):
        p = write(tmp_path / "m.manifest", "x/1.pgm\ta\ny/2.pgm\tb\n")
        m = load_manifest(p)
        assert len(m) == 2
        assert m.class_labels == ["a", "b"]
        assert m.entries[0] == ManifestEntry("x/1.pgm", "a")

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = write(tmp_path / "m.manifest", "# header\n\nx.pgm\ta\n  \n# more\ny.pgm\tb\n")
        assert len(load_manifest(p)) == 2

    def test_duplicate_path_names_offender(self, tmp_path):
        p = write(tmp_path / "m.manifest", "x.pgm\ta\nx.pgm\tb\n")
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == f"{p}: duplicate image path in manifest: x.pgm"

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = write(tmp_path / "m.manifest", "x.pgm\ta\nbroken-line\n")
        with pytest.raises(ValueError, match=":2:"):
            load_manifest(p)

    def test_empty_manifest(self, tmp_path):
        p = write(tmp_path / "m.manifest", "# nothing here\n")
        with pytest.raises(ValueError, match="empty"):
            load_manifest(p)

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: manifest is not UTF-8"):
            load_manifest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "absent.manifest")

    def test_101_classes_first_is_index_zero(self, tmp_path):
        labels = [f"class_{i:03d}" for i in range(101)]
        lines = [f"img_{i}.pgm\t{lab}" for i, lab in enumerate(reversed(labels))]
        p = write(tmp_path / "m.manifest", "\n".join(lines) + "\n")
        m = load_manifest(p)
        assert len(m.class_labels) == 101
        assert m.class_labels[0] == "class_000"

    def test_round_trip(self, tmp_path):
        p = write(tmp_path / "m.manifest", "x.pgm\tb\ny.pgm\ta\nz.pgm\tb\n")
        m = load_manifest(p)
        out = tmp_path / "copy.manifest"
        save_manifest(m, out)
        again = load_manifest(out)
        assert again.entries == m.entries
        assert again.class_labels == m.class_labels


class TestPgm:
    def test_all_zero_round_trip(self, tmp_path):
        img = Image(pixels=np.zeros((4, 4), np.uint8))
        path = tmp_path / "z.pgm"
        save_image(img, path)
        back = load_image(path)
        assert back.width == back.height == 4
        assert not back.pixels.any()

    def test_pixels_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(pixels=rng.integers(0, 256, (5, 7)).astype(np.uint8))
        path = tmp_path / "r.pgm"
        save_image(img, path)
        assert np.array_equal(load_image(path).pixels, img.pixels)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="unsupported maxval"):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 3\n255\n" + bytes(5))
        with pytest.raises(ValueError, match="truncated"):
            load_image(path)

    def test_not_pgm(self, tmp_path):
        path = tmp_path / "no.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="unsupported format"):
            load_image(path)

    def test_header_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert load_image(path).width == 2


class TestImageSize:
    def test_long_header_comments(self, tmp_path):
        # comment lines of 231 to 270 bytes, and of 5,001, before the size tokens
        path = tmp_path / "c.pgm"
        for pad in range(230, 270):
            path.write_bytes(b"P5\n#" + b"x" * pad + b"\n300 2\n255\n" + bytes(600))
            assert image_size(path) == (300, 2)
            assert load_image(path).width == 300
        path.write_bytes(b"P5\n#" + b"x" * 5000 + b"\n3 2\n255\n" + bytes(6))
        assert image_size(path) == (3, 2)

    @pytest.mark.parametrize("data, message", [
        (b"P6\n2 2\n255\n" + bytes(12), "unsupported format"),
        (b"P5\n2 2\n65535\n" + bytes(8), "unsupported maxval"),
        (b"P5\n2 x2\n255\n" + bytes(4), "malformed header token"),
        (b"P5\n0 2\n255\n", "invalid dimensions"),
        (b"P5\n2 2", "truncated header"),
        (b"P5\n2 2\n255", r"truncated payload \(0 bytes, expected 4\)$"),
        (b"P5\n2 2\n255\n" + bytes(5), "trailing bytes after 4-byte payload"),
        # a '#' inside a token belongs to the token, not to a comment
        (b"P5\n2#x 2\n255\n" + bytes(4), "malformed header token b'2#x'$"),
        (b"P5\n2 2\n255#c\n" + bytes(4), "malformed header token b'255#c'$"),
        (b"P5\n2 2\n# c", "truncated header$"),
        # NUL and \x1c are not whitespace bytes (str.isspace takes \x1c)
        (b"P5\x002 2\n255\n" + bytes(4), r"unsupported format \(expected P5, got b'P5\\x002'\)$"),
        (b"P5\n2\x1c2 2\n255\n" + bytes(4), r"malformed header token b'2\\x1c2'$"),
    ])
    def test_bad_header_raises_as_load_image_does(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        for read in (image_size, load_image):
            with pytest.raises(ValueError, match=message):
                read(path)

    @pytest.mark.parametrize("data, parsed", [
        (b"P5\x0b2\x0c2\r255\n" + bytes(4), (2, 2, 11)),
        (b"\n# lead\nP5 2 2 255 " + bytes(4), (2, 2, 19)),
    ])
    def test_whitespace_bytes_and_leading_comment(self, tmp_path, data, parsed):
        path = tmp_path / "ok.pgm"
        path.write_bytes(data)
        assert _pgm_header(data, path) == parsed
        assert image_size(path) == parsed[:2]

    @settings(max_examples=200)
    @given(
        width=st.integers(min_value=1, max_value=6),
        height=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_any_separators_parse(self, width, height, data):
        # save_image's tokens, joined by whitespace runs and '#' comment lines
        space = st.sampled_from(b" \t\n\r\x0b\x0c").map(lambda c: bytes([c]))
        blank = st.lists(space, min_size=1, max_size=3).map(b"".join)
        comment = st.binary(max_size=8).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
        gap = st.lists(st.one_of(blank, comment), max_size=3).map(b"".join)
        tokens = [b"P5", str(width).encode(), str(height).encode(), b"255"]
        header = data.draw(gap) + tokens[0]
        for token in tokens[1:]:  # a token ends at whitespace, so each gap opens with some
            header += data.draw(blank) + data.draw(gap) + token
        header += data.draw(space)
        pgm = header + data.draw(st.binary(min_size=width * height, max_size=width * height))
        assert _pgm_header(pgm, "h.pgm") == (width, height, len(pgm) - width * height)

    def test_payload_length_is_checked(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n64 48\n255\n" + bytes(5))
        with pytest.raises(ValueError, match=r"truncated payload \(5 bytes, expected 3072\)$"):
            image_size(path)
        path.write_bytes(b"P5\n64 48\n255\n" + bytes(64 * 48))
        assert image_size(path) == (64, 48)


def manifest_with_classes(n_classes: int, per_class: int = 2) -> DatasetManifest:
    entries = [
        ManifestEntry(f"c{c:03d}/im{i}.pgm", f"c{c:03d}")
        for c in range(n_classes)
        for i in range(per_class)
    ]
    return DatasetManifest(name="toy", entries=tuple(entries))


class TestSelectClasses:
    def test_full_selection_is_identity(self):
        m = manifest_with_classes(6)
        for seed in (0, 1, 99):
            assert select_classes(m, 6, seed).entries == m.entries

    def test_nested_one_in_six(self):
        m = manifest_with_classes(10)
        small = set(select_classes(m, 1, seed=4).class_labels)
        large = set(select_classes(m, 6, seed=4).class_labels)
        assert small <= large

    def test_deterministic(self):
        m = manifest_with_classes(9)
        a = select_classes(m, 4, seed=2)
        b = select_classes(m, 4, seed=2)
        assert a.entries == b.entries

    def test_out_of_range(self):
        m = manifest_with_classes(3)
        with pytest.raises(ValueError, match="out of range"):
            select_classes(m, 0, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            select_classes(m, 4, seed=0)

    @settings(max_examples=50)
    @given(
        n_classes=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_nesting_chain(self, n_classes, seed, data):
        a = data.draw(st.integers(min_value=1, max_value=n_classes))
        b = data.draw(st.integers(min_value=a, max_value=n_classes))
        m = manifest_with_classes(n_classes)
        sa = set(select_classes(m, a, seed).class_labels)
        sb = set(select_classes(m, b, seed).class_labels)
        assert len(sa) == a and len(sb) == b
        assert sa <= sb

    def test_entry_order_preserved(self):
        m = manifest_with_classes(5)
        sub = select_classes(m, 3, seed=1)
        positions = [m.entries.index(e) for e in sub.entries]
        assert positions == sorted(positions)
