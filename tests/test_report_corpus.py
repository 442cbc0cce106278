import report_corpus


def test_every_report_matches_the_corpus():
    # Reports are deterministic: the same command, input and seed give the
    # same bytes.  A change that is meant to change reports rewrites the
    # corpus (report_corpus.py) and commits the diff.
    produced = report_corpus.generate()
    corpus = report_corpus.committed()
    assert sorted(produced) == sorted(corpus)
    changed = [name for name, text in produced.items() if text != corpus[name]]
    here, there = report_corpus.versions(), report_corpus.committed_versions()
    libraries = "" if here == there else f"; the corpus was written with {there}, this run has {here}"
    assert not changed, f"{len(changed)} reports differ from the corpus, first {changed[:5]}{libraries}"
