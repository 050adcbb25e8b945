"""The cascade over a pandas frame of addresses, for tests that build
their inputs and read their results as frames: the frame goes in as the
Arrow table ``process_addresses_df`` takes, the rows come back as a
frame."""

import pyarrow as pa

from georay.cascade import process_addresses_df


def geocode_frame(df, gazetteer, parser, cfg):
    return process_addresses_df(pa.Table.from_pandas(df, preserve_index=False),
                                gazetteer, parser, cfg).to_pandas()
