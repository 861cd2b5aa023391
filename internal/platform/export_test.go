package platform

// DecodeFast runs DecodeJSON's fast path alone over data: the columns it
// reads, unvalidated, or false where it refuses the document and DecodeJSON
// hands it to encoding/json.
func DecodeFast(data []byte) (*Columns, bool) {
	d := decoder{data: data}
	if !d.document() {
		return nil, false
	}
	return d.columns(), true
}
