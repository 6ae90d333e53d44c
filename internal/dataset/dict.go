package dataset

// Dict interns the categorical values of one attribute (or label) column:
// each distinct string gets a dense int32 code in first-seen order. Codes
// are the primary representation of learning tables — string comparisons on
// the hot paths become int32 comparisons, and per-column value sets become
// dense arrays indexed by code. A Dict is append-only while a base is under
// construction and immutable once the table is published; immutable Dicts
// are safe for concurrent readers.
type Dict struct {
	index map[string]int32
	strs  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int32)}
}

// Intern returns the code of s, assigning the next code if s is new.
func (d *Dict) Intern(s string) int32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := int32(len(d.strs))
	d.index[s] = c
	d.strs = append(d.strs, s)
	return c
}

// Code returns the code of s, or -1 if s was never interned. -1 never
// equals a stored code, so unseen query values naturally match no rows.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	return -1
}

// String returns the value of a code assigned by Intern.
func (d *Dict) String(code int32) string { return d.strs[code] }

// Strings returns the values in code order. Treat it as read-only.
func (d *Dict) Strings() []string { return d.strs[:len(d.strs):len(d.strs)] }

// Len reports the number of distinct values (the column's cardinality).
func (d *Dict) Len() int { return len(d.strs) }

// CloneForIntern returns a dictionary that assigns the same codes as d but
// owns its index map, so new values can be interned into the clone without
// mutating d. The string table is shared copy-on-write (append extends only
// the clone's view), which is how live ingest grows a column's value set
// while concurrent readers of the published base keep a consistent view.
func (d *Dict) CloneForIntern() *Dict {
	idx := make(map[string]int32, len(d.index)+1)
	for k, v := range d.index {
		idx[k] = v
	}
	return &Dict{index: idx, strs: d.strs}
}
