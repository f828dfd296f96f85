"""Seeded synthetic datasets for the three demo domains.

The paper demonstrates WmXML on real-world semi-structured feeds; this
package substitutes controlled synthetic equivalents (see DESIGN.md):

* :mod:`~repro.datasets.bibliography` — the db1.xml publication domain
  of Figure 1, with the title key and the editor->publisher FD,
* :mod:`~repro.datasets.jobs` — the job-agent feed of the introduction,
* :mod:`~repro.datasets.library` — a digital library with binary image
  payloads (the image plug-in's domain),
* :mod:`~repro.datasets.paper` — the verbatim Figure 1 documents.

Each domain module exports ``generate_rows`` / ``generate_document``, at
least two :class:`~repro.semantics.shape.DocumentShape` organisations,
its keys/FDs in XML-constraint form, usability templates, and a
``default_scheme`` ready for the encoder.
"""

from repro.datasets import bibliography, jobs, library, paper

__all__ = ["bibliography", "jobs", "library", "paper"]
